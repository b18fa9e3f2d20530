"""Latency summaries shared by the runner and the steadiness command."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: Candidate tail percentiles, highest first.  p99.9 is left out: on
#: the 2-CPU virtual machine the README describes it measured vCPU
#: preemption rather than the program (spread 0.20 over five runs of
#: stream_small, against 0.03 for p99).
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    return sorted_values[n - beyond(n, p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n: int, preferred: float | None = None) -> float | None:
    """``preferred`` if it keeps at least MIN_BEYOND of n samples beyond
    it, else the highest such percentile in TAIL_LADDER, or None when n
    is too small.

    Each workload prefers the percentile its run length supports on the
    machine the README describes, so that a run a little faster or slower
    than usual does not switch percentiles."""
    if preferred is not None and beyond(n, preferred) >= MIN_BEYOND:
        return preferred
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf


def blockwise(lat, n_slots: int, blocks: int, preferred_tail: float) -> tuple[float, float, float, list]:
    """ops per second, p50 and tail latency (in the units of ``lat``), each
    the median over ``blocks`` consecutive runs of whole cycles, and the
    tail percentile each block used.

    ``lat`` holds whole cycles of ``n_slots`` ops; the last block takes
    the cycles left over.  A stretch of a run that the host slowed
    touches one block, not the median."""
    cycles = len(lat) // n_slots
    blocks = max(1, min(blocks, cycles))
    per = cycles // blocks
    rates, p50s, tails, used = [], [], [], []
    for b in range(blocks):
        end = (b + 1) * per if b < blocks - 1 else cycles
        part = sorted(lat[b * per * n_slots : end * n_slots])
        p = tail_percentile(len(part), preferred_tail) or 50.0
        rates.append(len(part) / sum(part))
        p50s.append(percentile(part, 50.0))
        tails.append(percentile(part, p))
        used.append(p)
    return statistics.median(rates), statistics.median(p50s), statistics.median(tails), used
