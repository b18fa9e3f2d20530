"""The LAPACK work of a solve, counted: a guard that its cost stays bounded.

Every LAPACK call of the package goes through ``numerics``, which looks
its ctypes routines (``_zgeqrf`` and the like) and numpy's
``_umath_linalg`` gufuncs up at call time.  Wrapping them records each
call's routine and dimensions, so a change that adds a filtering pass,
a factorization or a larger matrix to a fixed solve fails here, without
timing anything.  The ceilings are the counts measured when the guard
was written; a change that lowers them should lower the table too.
"""

import ctypes
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest
from numpy.linalg import _umath_linalg

import padepencil as pp
from padepencil import numerics

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: The ctypes routines of ``numerics`` and the positions of their
#: dimension arguments (M, N, K, NRHS), each the address of an int64.
ROUTINES = {
    "zgeqrf": (0, 1),
    "zungqr": (0, 1, 2),
    "ztrtrs": (3, 4),
    "zgesdd": (1, 2),
    "zgebrd": (0, 1),
    "dbdsdc": (2,),
    "zunmbr": (3, 4, 5),
}
#: The gufuncs of ``_umath_linalg`` that ``numerics`` calls; a call's
#: dimensions are its matrix's shape.
GUFUNCS = ("svd_f", "svd", "solve1", "eigvals")

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
        "zgeqrf": (2, (10, 10)),
        "ztrtrs": (2, (10, 10)),
        "zungqr": (2, (10, 10, 10)),
    },
    "svd log m=10": {
        "dbdsdc": (1, (10,)),
        "zgebrd": (1, (10, 11)),
        "zunmbr": (1, (11, 11, 10)),
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


CASES = {
    "pm2 log m=20": lambda mp: (pp.pm2, *_log(20)),
    "pm2 log m=100": lambda mp: (pp.pm2, *_log(100)),
    "pm2 wide m=40": lambda mp: (pp.pm2, *_wide(mp)),
    "pm1 log m=10": lambda mp: (pp.pm1, *_log(10)),
    "svd log m=10": lambda mp: (pp.svd_denominator, *_log(10)),
}


def _count_calls(monkeypatch, solve) -> dict:
    """routine -> dimensions of each call that ``solve()`` makes."""
    calls = defaultdict(list)

    def routine_wrapper(name, routine):
        def call(*args):
            calls[name].append(tuple(ctypes.c_int64.from_address(args[i]).value for i in ROUTINES[name]))
            return routine(*args)
        return call

    def gufunc_wrapper(name, gufunc):
        def call(a, *args, **kwargs):
            calls[name].append(a.shape)
            return gufunc(a, *args, **kwargs)
        return call

    for name in ROUTINES:
        monkeypatch.setattr(numerics, f"_{name}", routine_wrapper(name, getattr(numerics, f"_{name}")))
    gufuncs = {name: gufunc_wrapper(name, getattr(_umath_linalg, name)) for name in GUFUNCS}
    monkeypatch.setattr(numerics, "_umath_linalg", SimpleNamespace(**gufuncs))
    solve()
    return dict(calls)


@pytest.mark.parametrize("case", CASES)
def test_lapack_calls_per_solve_stay_under_their_ceilings(case, monkeypatch):
    solver, s, conf = CASES[case](monkeypatch)
    solver(s, conf)  # the workspace queries (LWORK = -1) are cached by shape after this
    got = _count_calls(monkeypatch, lambda: solver(s, conf))
    ceilings = CEILINGS[case]
    assert set(got) <= set(ceilings), f"new routines: {sorted(set(got) - set(ceilings))}"
    for name, dims in got.items():
        max_calls, max_dims = ceilings[name]
        assert len(dims) <= max_calls, (name, dims)
        assert all(d <= top for shape in dims for d, top in zip(shape, max_dims)), (name, dims, max_dims)
