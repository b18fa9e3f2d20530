"""Taxonomy of computed poles and zeros.

Noise turns the redundant denominator degrees of an over-parameterized
approximant into artifacts with a recognizable anatomy: pole-zero pairs
separated by a tiny distance (doublets, near-cancelling and therefore
mostly harmless away from their location), and stray roots flung far
from the region of interest.  This module sorts a computed root set
into genuine system poles, doublets, far poles/zeros, and leftovers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .series import is_real

#: Stage tolerances: a system pole lies within max(SYSTEM_TOL_PER_EPS *
#: eps, SYSTEM_TOL_FLOOR) of its expected location, a doublet's pole and
#: zero within DOUBLET_TOL of each other, and a far root at magnitude
#: FAR_TOL or more.
SYSTEM_TOL_FLOOR = 1e-2
SYSTEM_TOL_PER_EPS = 1e3
DOUBLET_TOL = 0.3
FAR_TOL = 3.0


@dataclass(frozen=True)
class RootTaxonomy:
    """Classification of a pole/zero set.

    ``doublets`` holds (pole, zero) pairs; ``unclassified`` holds
    ("pole"|"zero", value) pairs for roots that matched nothing.
    """

    system_poles: tuple
    doublets: tuple
    far_poles: tuple
    far_zeros: tuple
    unclassified: tuple


def _modulus(z: complex) -> float:
    """|z| as numpy gives it for a complex scalar: libm's hypot, inf
    where that overflows (Python's abs raises OverflowError there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def classify_roots(poles, zeros, expected_system, eps: float = 0.0) -> RootTaxonomy:
    """Sort computed roots into system poles, doublets and far strays.

    Classification happens in three greedy stages:

    1. each expected system location claims its nearest unclaimed pole
       within max(1e3*eps, 1e-2), a tolerance that widens with the
       noise level;
    2. remaining poles pair with zeros into doublets, closest pairs
       first, while the pair distance is <= 0.3 (``DOUBLET_TOL``);
    3. remaining roots of magnitude >= 3 (``FAR_TOL``) are far
       poles/zeros.

    Whatever survives all three stages lands in ``unclassified``.

    Parameters
    ----------
    poles, zeros : array_like
        Computed root sets.
    expected_system : array_like
        Locations where genuine poles are expected.
    eps : float, optional
        Coefficient noise amplitude used to widen the system tolerance:
        finite and >= 0, or ValueError before any arithmetic.

    Raises NonFinite if a pole, zero or expected location is NaN or
    infinite.
    """
    if not (is_real(eps) and 0 <= eps < np.inf):  # NaN fails too
        raise ValueError(f"noise amplitude eps must be finite and >= 0, got {eps}")
    arrays = [np.ravel(np.asarray(v, dtype=complex)) for v in (poles, zeros, expected_system)]
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFinite("poles, zeros and expected locations must be finite")
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

    # Closest pairs first, only those within DOUBLET_TOL.  |p - z| (hypot) is
    # never below the rounded |p.real - z.real|, which is within DOUBLET_TOL
    # only if the exact difference is below band; rounding is monotone, so
    # bisection at p.real -+ band finds every zero of such a pair.
    by_real = sorted((z.real, j) for j, z in enumerate(zero_values))
    reals = [x for x, _ in by_real]
    band = DOUBLET_TOL * (1 + 2**-40)
    pairs = sorted(
        (d, i, j)
        for i, p in enumerate(pole_values)
        if not pole_used[i]
        for _, j in by_real[bisect_left(reals, p.real - band) : bisect_right(reals, p.real + band)]
        if (d := _modulus(p - zero_values[j])) <= DOUBLET_TOL
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
