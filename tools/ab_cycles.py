"""In-process A/B timing of two checkouts on one benchmark workload.

Usage (from the repository root)::

    python3 tools/ab_cycles.py PARENT_ROOT CHANGE_ROOT stream_small 600 [--seed 1]

Loads ``src/padepencil`` of each checkout root under a package name of
its own (``padepencil_a`` for the first root, ``padepencil_b`` for the
second) into one interpreter, with BLAS pinned to one thread before
numpy loads.  The workload is built from the first root's
``benchmarks/workloads.py``, unchanged, once per side, with that
module's ``pp`` and ``cli`` bound to the side's package; its slots look
those names up at call time, so each side's cycle runs its own package.

Every slot first runs once on each side, and the outputs' fingerprints
must agree bit for bit.  Then each round times one whole cycle per
side, the side that goes first swapped every round.  It prints each
side's median cycle and the median over rounds of the first side's
cycle time divided by the second's (above 1: the second is faster).

Separate processes on a shared host can differ in speed by up to 2x,
so two ``timeit`` runs cannot show a 5 % difference; alternating cycles
in one process can.  This is a development aid: a speed claim still
comes from pairs of ``benchmarks/run.py`` runs.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import statistics
import tempfile
import time
from pathlib import Path


def load_package(root: Path, name: str):
    """The checkout's padepencil and its cli, imported as ``name``."""
    init = root / "src" / "padepencil" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package, importlib.import_module(f"{name}.cli")


class Side:
    def __init__(self, workloads, root: Path, name: str, workload: str, seed: int, out_dir: str):
        self.workloads = workloads
        self.pp, self.cli = load_package(root, name)
        self.label = f"{name} ({root})"
        self.bind()
        self.slots = workloads.build(workload, seed, out_dir).slots
        self.failures = (self.pp.ApproximationError, ValueError, workloads.OpFailed)

    def bind(self) -> None:
        self.workloads.pp, self.workloads.cli = self.pp, self.cli

    def fingerprints(self) -> list:
        self.bind()
        out = []
        for slot in self.slots:
            try:
                out.append(slot.fingerprint(slot.run()))
            except self.failures as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    def cycle(self) -> float:
        """Wall seconds of one whole cycle; failing ops are timed too."""
        self.bind()
        failures, clock = self.failures, time.perf_counter
        t0 = clock()
        for slot in self.slots:
            try:
                slot.run()
            except failures:
                pass
        return clock() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("first", type=Path, help="checkout root of side a, such as the parent commit")
    p.add_argument("second", type=Path, help="checkout root of side b, such as the change")
    p.add_argument("workload", help="a workload name from benchmarks/workloads.py")
    p.add_argument("rounds", type=int, help="number of rounds, one cycle per side each")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("rounds must be at least 1")
    first, second = args.first.resolve(), args.second.resolve()
    # workloads.py imports padepencil by its own name: take the first root's.
    sys.path[:0] = [str(first / "benchmarks"), str(first / "src")]
    import workloads

    # One output directory for both sides: some outputs hold their path.
    with tempfile.TemporaryDirectory() as out_dir:
        sides = [Side(workloads, first, "padepencil_a", args.workload, args.seed, out_dir),
                 Side(workloads, second, "padepencil_b", args.workload, args.seed, out_dir)]
        fp_a, fp_b = (side.fingerprints() for side in sides)
        differ = [slot.label for slot, a, b in zip(sides[0].slots, fp_a, fp_b) if a != b]
        if differ:
            print(f"outputs differ in {len(differ)} of {len(fp_a)} slots: {', '.join(differ)}")
            return 1
        times = ([], [])
        for r in range(args.rounds):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                times[i].append(sides[i].cycle())
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds, {len(fp_a)} slots, outputs identical")
    for side, t in zip(sides, times):
        q1, med, q3 = statistics.quantiles(t, n=4) if len(t) > 1 else (t[0],) * 3
        print(f"{side.label}: median cycle {1e3 * med:.3f} ms (quartiles {1e3 * q1:.3f}-{1e3 * q3:.3f})")
    ratio = statistics.median(a / b for a, b in zip(*times))
    print(f"median per-round ratio a/b: {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
