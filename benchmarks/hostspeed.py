"""Host-speed reference: timings scaled to a nominal host.

The 2-CPU virtual machine this benchmark was built on shares its cores
with other tenants, and its speed swings by a factor of up to two over
tens of seconds: 5-second windows of the same pm2 loop ran at 0.65x to
1.35x of their median rate (coefficient of variation 0.20).  A 25-second
run cannot average that away.

So the timed loop also runs a fixed reference kernel that does not call
padepencil, about every REF_INTERVAL_S seconds.  It has an interpreter
part and a LAPACK part, timed apart, because the swings hit interpreted
code harder than LAPACK.  Each op's wall time is divided by the host's
slowdown around that op: the two parts' times over their nominal times,
weighted by the workload's share of time in LAPACK.  The result reads
in seconds of a host running at the nominal speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: How often the timed loop runs the reference kernel.
REF_INTERVAL_S = 0.1
#: Reference samples on each side whose median scales an op.
REF_HALF_WIDTH = 2
#: Median times of the kernel's two parts on the machine the README
#: describes; the runner prints the measured medians on every run.
NOMINAL_INTERP_S = 0.0010
NOMINAL_LAPACK_S = 0.0016

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((12, 10)) + 1j * _rng.standard_normal((12, 10))
_MEDIUM = _rng.standard_normal((90, 46)) + 1j * _rng.standard_normal((90, 46))


def _interp_part() -> int:
    """Interpreter work and small numpy calls, like the solvers' per-call overhead."""
    acc = 0
    table: dict = {}
    for i in range(1500):
        table[i & 127] = acc
        acc += len(str(i)) + (i % 7)
    for _ in range(15):
        a = np.asarray(_SMALL, dtype=complex)
        if np.all(np.isfinite(a)):
            q, r = np.linalg.qr(a)
            acc += int(np.abs(np.diag(r)).min() > 0)
    return acc


def _lapack_part() -> int:
    """One full complex SVD of the size pm2 factors at m of about 45."""
    return int(np.linalg.svd(_MEDIUM)[1][0] > 0)


def time_reference() -> tuple[float, float]:
    """Times of the two parts, each taken right after an untimed run so
    that the sample does not depend on what the ops left in the caches."""
    out = []
    for part in (_interp_part, _lapack_part):
        part()
        t0 = time.perf_counter()
        part()
        out.append(time.perf_counter() - t0)
    return out[0], out[1]


def op_factors(ref_samples: list, op_windows: list[int], lapack_share: float) -> list[float]:
    """Scale factor for each op: 1 over the host slowdown, estimated as
    the median over the reference samples within REF_HALF_WIDTH of the
    op's window of (1 - share) t_interp/NOMINAL_INTERP_S + share
    t_lapack/NOMINAL_LAPACK_S, where share is the workload's share of
    time spent in LAPACK.

    ``op_windows[i]`` is the index of the last reference sample taken
    before op i; samples i and i+1 bracket it.
    """
    n = len(ref_samples)
    if n == 0:
        raise ValueError("no reference samples")
    slowdown = [
        (1 - lapack_share) * ti / NOMINAL_INTERP_S + lapack_share * tl / NOMINAL_LAPACK_S
        for ti, tl in ref_samples
    ]
    cache: dict[int, float] = {}
    out = []
    for w in op_windows:
        if w not in cache:
            lo, hi = max(0, w - REF_HALF_WIDTH + 1), min(n, w + REF_HALF_WIDTH + 1)
            cache[w] = 1.0 / statistics.median(slowdown[lo:hi])
        out.append(cache[w])
    return out
