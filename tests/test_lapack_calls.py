"""The LAPACK work of a solve, counted: a guard that its cost stays bounded.

Every LAPACK call of the package goes through ``numerics``, which looks
its ctypes routines (``_zgeqrf`` and the like) and numpy's
``_umath_linalg`` gufuncs up at call time.  Wrapping them, with the
``instrument`` of ``tools/lapack_share.py``, records each call's routine
and dimensions, so a change that adds a filtering pass, a factorization
or a larger matrix to a fixed solve fails here, without timing anything.
The ceilings are the counts measured when the guard was written; a
change that lowers them should lower the table too.
"""

from collections import defaultdict
from functools import partial
from pathlib import Path

import pytest

import padepencil as pp
from padepencil import numerics

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"

#: Per solve: routine -> (calls, the largest of each dimension over them).
CEILINGS = {
    "pm2 log m=20": {
        "dbdsdc": (3, (20,)),
        "eigvals": (1, (11, 11)),
        "svd": (1, (40, 11)),
        "zgebrd": (3, (20, 21)),
        "zgeqrf": (5, (40, 13)),
        "ztrtrs": (2, (11, 11)),
        "zungqr": (2, (40, 11, 11)),
        "zunmbr": (2, (13, 13, 13)),
    },
    "pm2 log m=100": {
        "dbdsdc": (3, (100,)),
        "eigvals": (1, (12, 12)),
        "svd": (1, (200, 12)),
        "zgebrd": (3, (100, 101)),
        "zgeqrf": (4, (200, 15)),
        "ztrtrs": (2, (12, 12)),
        "zungqr": (2, (200, 12, 12)),
        "zunmbr": (1, (13, 13, 13)),
    },
    "pm2 wide m=40": {
        "dbdsdc": (1, (40,)),
        "eigvals": (1, (40, 40)),
        "svd": (2, (80, 40)),
        "zgebrd": (1, (40, 41)),
        "zgeqrf": (2, (80, 40)),
        "ztrtrs": (2, (40, 40)),
        "zungqr": (2, (80, 40, 40)),
        "zunmbr": (1, (41, 41, 40)),
    },
    "pm1 log m=10": {
        "eigvals": (1, (10, 10)),
        "zgeqrf": (2, (20, 10)),
        "ztrtrs": (2, (10, 10)),
        "zungqr": (2, (20, 10, 10)),
    },
    "svd log m=10": {
        "dbdsdc": (1, (10,)),
        "zgebrd": (1, (10, 11)),
        "zunmbr": (1, (11, 11, 10)),
    },
    # Accepted at l = 1: the 1 x 1 pencil's eigenvalue is its entry and
    # the one-column residue Vandermonde passes rule 3, so neither the
    # eigvals nor the svd gufunc may run.
    "pm2 geo m=10": {
        "dbdsdc": (2, (10,)),
        "zgebrd": (2, (10, 11)),
        "zgeqrf": (3, (20, 2)),
        "ztrtrs": (2, (1, 1)),
        "zungqr": (2, (20, 1, 1)),
        "zunmbr": (1, (2, 2, 2)),
    },
    "pm1 poles=5 m=5": {
        "eigvals": (1, (5, 5)),
        "zgeqrf": (2, (10, 5)),
        "ztrtrs": (2, (5, 5)),
        "zungqr": (2, (10, 5, 5)),
    },
}


def _log(m):
    return pp.gen_log_series(2 * m + 1), pp.Conformation(m, 0)


def _wide(monkeypatch):
    # The first wide-magnitude slot of deep_filter, as
    # tests/test_benchmark_layers.py builds it.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import oracles
    import workloads

    m, amp, period = workloads.WIDE_SLOTS[0]
    coeffs = oracles.wide_magnitude_series(workloads._rng(1, "deep_filter", 100), 2 * m, amp, period)
    return pp.PowerSeries(coeffs, t=15.0), pp.Conformation(m, -1)


def _stream_slot(monkeypatch, label):
    """The op of the seed-1 stream_small slot with this label."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    (slot,) = [slot for slot in workloads.stream_small(1).slots if slot.label == label]
    return slot.run


#: Each case gives the solve to count, a call without arguments.
CASES = {
    "pm2 log m=20": lambda mp: partial(pp.pm2, *_log(20)),
    "pm2 log m=100": lambda mp: partial(pp.pm2, *_log(100)),
    "pm2 wide m=40": lambda mp: partial(pp.pm2, *_wide(mp)),
    "pm1 log m=10": lambda mp: partial(pp.pm1, *_log(10)),
    "svd log m=10": lambda mp: partial(pp.svd_denominator, *_log(10)),
    "pm2 geo m=10": lambda mp: _stream_slot(mp, "pm2/geo eps=1e-06 m=10"),
    "pm1 poles=5 m=5": lambda mp: _stream_slot(mp, "pm1/poles=5 eps=0 m=5"),
}


def _count_calls(monkeypatch, solve) -> dict:
    """routine -> dimensions of each call that ``solve()`` makes."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import lapack_share

    calls = defaultdict(list)
    lapack_share.instrument(numerics, monkeypatch.setattr,
                            lambda name, args, seconds: calls[name].append(lapack_share.dimensions(name, args)))
    solve()
    return dict(calls)


@pytest.mark.parametrize("case", CASES)
def test_lapack_calls_per_solve_stay_under_their_ceilings(case, monkeypatch):
    solve = CASES[case](monkeypatch)
    solve()  # the workspace queries (LWORK = -1) are cached by shape after this
    got = _count_calls(monkeypatch, solve)
    ceilings = CEILINGS[case]
    assert set(got) <= set(ceilings), f"new routines: {sorted(set(got) - set(ceilings))}"
    for name, dims in got.items():
        max_calls, max_dims = ceilings[name]
        assert len(dims) <= max_calls, (name, dims)
        assert all(d <= top for shape in dims for d, top in zip(shape, max_dims)), (name, dims, max_dims)
