"""Taxonomy of computed poles and zeros.

Noise turns the redundant denominator degrees of an over-parameterized
approximant into artifacts with a recognizable anatomy: pole-zero pairs
separated by a tiny distance (doublets, near-cancelling and therefore
mostly harmless away from their location), and stray roots flung far
from the region of interest.  This module sorts a computed root set
into genuine system poles, doublets, far poles/zeros, and leftovers.
"""

from __future__ import annotations

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
    arrays = [np.atleast_1d(np.asarray(v, dtype=complex)) for v in (poles, zeros, expected_system)]
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFinite("poles, zeros and expected locations must be finite")
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
