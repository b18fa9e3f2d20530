"""Share of a workload's cycle time spent inside LAPACK.

Usage (from the repository root)::

    python3 tools/lapack_share.py stream_small 200 [--seed 1]

Builds the named workload of this checkout's ``benchmarks/workloads.py``
and runs whole cycles of it in one process, BLAS pinned to one thread
before numpy loads.  CYCLES plain cycles, which give the cycle time,
alternate with CYCLES cycles that run with every LAPACK call of
``numerics`` wrapped by ``instrument``, which times each ctypes routine
(``_zgeqrf`` and the like) and each ``_umath_linalg`` gufunc, call
overhead included.  It prints the median plain cycle, the LAPACK calls
per cycle, the median LAPACK time per cycle and the median over pairs
of its share of the plain cycle.

``instrument`` is also what ``tests/test_lapack_calls.py`` counts calls
with, so the tool and the test see the same calls.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import statistics
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent

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


def dimensions(name: str, args: tuple) -> tuple:
    """The dimensions of one call of routine or gufunc ``name``."""
    if name in ROUTINES:
        return tuple(ctypes.c_int64.from_address(args[i]).value for i in ROUTINES[name])
    return args[0].shape


def instrument(numerics, patch, record) -> None:
    """Wrap every LAPACK entry of the module ``numerics``.

    ``patch(owner, attribute, value)`` installs each wrapper (a
    ``monkeypatch.setattr``, or ``setattr`` with the caller restoring the
    originals), and each call then reports ``record(name, args, seconds)``
    after it returns or raises: ``args`` are the call's arguments, the
    matrix first for a gufunc, and ``seconds`` its wall time.  numerics
    looks its routines and ``_umath_linalg`` up at call time, so every
    call goes through the wrappers.
    """
    clock = time.perf_counter

    def wrap(name, fn):
        def call(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(name, args, clock() - t0)
        return call

    for name in ROUTINES:
        patch(numerics, f"_{name}", wrap(name, getattr(numerics, f"_{name}")))
    gufuncs = numerics._umath_linalg
    patch(numerics, "_umath_linalg", SimpleNamespace(**{name: wrap(name, getattr(gufuncs, name)) for name in GUFUNCS}))


def cycle(slots, failures) -> float:
    """Wall seconds of one whole cycle; failing ops are timed too."""
    t0 = time.perf_counter()
    for slot in slots:
        try:
            slot.run()
        except failures:
            pass
    return time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("workload", help="a workload name from benchmarks/workloads.py")
    p.add_argument("cycles", type=int, help="number of cycles, plain and instrumented each")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.cycles < 1:
        p.error("cycles must be at least 1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import workloads
    from padepencil import ApproximationError, numerics

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload}; expected one of {', '.join(workloads.WORKLOADS)}")
    failures = (ApproximationError, ValueError, workloads.OpFailed)
    with tempfile.TemporaryDirectory() as out_dir:
        slots = workloads.build(args.workload, args.seed, out_dir).slots
        cycle(slots, failures)  # warm-up: workspace queries are cached by shape
        originals = [(numerics, f"_{name}", getattr(numerics, f"_{name}")) for name in ROUTINES]
        originals.append((numerics, "_umath_linalg", numerics._umath_linalg))
        calls, inside = [0], [0.0]

        def record(name, call_args, seconds):
            calls[0] += 1
            inside[0] += seconds

        def instrumented() -> float:
            calls[0], inside[0] = 0, 0.0
            instrument(numerics, setattr, record)
            try:
                cycle(slots, failures)
            finally:
                for owner, attr, value in originals:
                    setattr(owner, attr, value)
            return inside[0]

        plain, lapack = [], []
        for r in range(args.cycles):  # alternating, so that both see the same host
            if r % 2:
                lapack.append(instrumented())
            plain.append(cycle(slots, failures))
            if not r % 2:
                lapack.append(instrumented())
    per_cycle, lapack_s = statistics.median(plain), statistics.median(lapack)
    share = statistics.median(x / y for x, y in zip(lapack, plain))
    print(f"{args.workload}, seed {args.seed}, {args.cycles} cycles, {len(slots)} slots: "
          f"median cycle {1e3 * per_cycle:.3f} ms, {calls[0]} LAPACK calls per cycle, "
          f"{1e3 * lapack_s:.3f} ms in LAPACK, share {share:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
