"""Shared oracle helpers for the test suite.

These deliberately avoid the package's own construction paths: series
coefficients come from polynomial long division or explicit partial
fractions, so round-trip tests compare two independent computations.
The point-by-point evaluators at the end are the bitwise reference for
the package's array evaluators.
"""

import numpy as np

from padepencil import PoleHit, ZeroPole


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
    den = scalar_horner(ra.denom, z)
    if den == 0:
        raise PoleHit(f"denominator vanishes at z={z}")
    return scalar_horner(ra.numer, z) / den


def scalar_eval_pole_residue(prf, z):
    z = complex(z)
    acc = 0j
    for p, e in prf.terms:
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
