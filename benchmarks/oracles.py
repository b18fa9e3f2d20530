"""Independent inputs and references for the benchmark's correctness checks.

Nothing here calls padepencil.  Series with known poles are built in
50-digit mpmath and rounded once to double, so the coefficients, the
true poles and the reference ln(1.2-z) come from a computation the
program under test has no part in.  1/(1-z) enters as the known-pole
series with its single pole at 1.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

DIGITS = 50

#: The cut image of ln(1.2-z): genuine poles sit on this ray.
RAY_MIN_RE = 1.1
RAY_MAX_IM = 0.05


def _to_complex(x) -> complex:
    return complex(float(mpmath.re(x)), float(mpmath.im(x)))


def noisy_pole_series(poles, weights, n: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    """c_j = sum_i e_i p_i^-j, times (1 + eps*u_j) with u_j uniform on [-1, 1).

    The sum and the noise are formed at 50 digits and rounded once.
    ``eps = 0`` draws no random numbers.
    """
    noise = rng.uniform(-1.0, 1.0, n) if eps > 0 else np.zeros(n)
    with mpmath.workdps(DIGITS):
        inv = [1 / mpmath.mpc(p.real, p.imag) for p in poles]
        ws = [mpmath.mpc(w.real, w.imag) for w in weights]
        powers = [mpmath.mpc(1)] * len(inv)
        out = np.empty(n, dtype=complex)
        for j in range(n):
            c = mpmath.fsum(w * q for w, q in zip(ws, powers))
            out[j] = _to_complex(c * (1 + mpmath.mpf(eps) * mpmath.mpf(float(noise[j]))))
            powers = [q * d for q, d in zip(powers, inv)]
    return out


def log_series(n: int) -> np.ndarray:
    """Maclaurin coefficients of ln(1.2 - z) at 50 digits, rounded once."""
    with mpmath.workdps(DIGITS):
        r = 1 / mpmath.mpf("1.2")
        c = [mpmath.log(mpmath.mpf("1.2"))] + [-(r**j) / j for j in range(1, n)]
        return np.array([complex(float(x), 0.0) for x in c])


def well_separated_poles(
    rng: np.random.Generator, count: int, rmin: float = 1.1, rmax: float = 1.6
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` simple poles with rmin <= |p| <= rmax, pairwise at least
    0.35 apart, and weights of magnitude 0.5..2 with random phase."""
    poles: list[complex] = []
    while len(poles) < count:
        cand = rng.uniform(rmin, rmax) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(cand - p) >= 0.35 for p in poles):
            poles.append(complex(cand))
    weights = rng.uniform(0.5, 2.0, count) * np.exp(2j * np.pi * rng.uniform(size=count))
    return np.array(poles), weights


def wide_magnitude_series(rng: np.random.Generator, n: int, amplitude: float, period: int) -> np.ndarray:
    """Coefficients with magnitudes 10^(amplitude*cos(2 pi j/period) + u_j),
    u_j uniform on [-0.5, 0.5), and uniformly random phases."""
    expo = amplitude * np.cos(2 * np.pi * np.arange(n) / period) + rng.uniform(-0.5, 0.5, n)
    return 10.0**expo * np.exp(2j * np.pi * rng.uniform(size=n))


def ln_ref(z):
    return np.log(1.2 - np.asarray(z, dtype=complex))


def disk_points(radius: float = 0.5, rings: int = 4, per_ring: int = 32) -> np.ndarray:
    """The origin plus ``rings`` circles of ``per_ring`` points up to ``radius``."""
    angles = np.exp(2j * np.pi * np.arange(per_ring) / per_ring)
    return np.concatenate([[0j]] + [radius * (r / rings) * angles for r in range(1, rings + 1)])


def eval_rational(numer, denom, z) -> np.ndarray:
    """numer(z)/denom(z) from lowest-order-first coefficients."""
    z = np.asarray(z, dtype=complex)
    return np.polyval(np.asarray(numer)[::-1], z) / np.polyval(np.asarray(denom)[::-1], z)


def ln_taylor_remainder(n: int, radius: float = 0.5) -> float:
    """Bound on the error of the n-term Taylor polynomial of ln(1.2 - z)
    on |z| <= radius: sum_{j>=n} (1/j) (radius/1.2)^j."""
    q = radius / 1.2
    return q**n / (n * (1.0 - q))


def linearized_residual(coeffs, denom, m: int, k: int) -> float:
    """Relative residual of the linearised Pade conditions
    sum_i b_i c_{j-i} = 0 for j = m+k+1 .. 2m+k, with c_j = 0 for j < 0.

    Scaled by max_j sum_i |b_i| |c_{j-i}|, so a backward-stable solve
    gives a residual near machine precision whatever its conditioning.
    """
    c = np.asarray(coeffs, dtype=complex)
    b = np.asarray(denom, dtype=complex)
    worst = scale = 0.0
    for j in range(m + k + 1, 2 * m + k + 1):
        terms = [b[i] * c[j - i] for i in range(b.size) if 0 <= j - i < c.size]
        worst = max(worst, abs(sum(terms)))
        scale = max(scale, sum(abs(t) for t in terms))
    return worst / scale if scale > 0 else worst


def match_poles(found, true) -> float:
    """Worst relative distance from each true pole to its nearest found pole."""
    found = np.asarray(found, dtype=complex)
    if found.size == 0:
        return math.inf
    return max(float(np.min(np.abs(found - p))) / abs(p) for p in np.asarray(true, dtype=complex))


def on_ray(p: complex) -> bool:
    return p.real >= RAY_MIN_RE and abs(p.imag) <= RAY_MAX_IM
