"""In-process A/B timing of two checkouts on benchmark workloads.

Usage (from the repository root)::

    python3 tools/ab_cycles.py PARENT_ROOT CHANGE_ROOT stream_small 600 [--seed 1]
    python3 tools/ab_cycles.py PARENT_ROOT CHANGE_ROOT studies,cli_requests 40
    python3 tools/ab_cycles.py PARENT_ROOT CHANGE_ROOT all 40

Loads ``src/padepencil`` of each checkout root under a package name of
its own (``padepencil_a`` for the first root, ``padepencil_b`` for the
second) into one interpreter, with BLAS pinned to one thread before
numpy loads.  Each named workload (a comma-separated list, or ``all``
for every workload) is built from the first root's
``benchmarks/workloads.py``, unchanged, once per side, with that
module's ``pp`` and ``cli`` bound to the side's package; its slots look
those names up at call time, so each side's cycle runs its own package.

For each workload in turn, every slot first runs once on each side, and
the outputs' fingerprints must agree bit for bit.  Then each round times
one whole cycle per side, the side that goes first swapped every round.
It prints one line per workload: each side's median cycle and the
median over rounds of the first side's cycle time divided by the
second's (above 1: the second is faster).  The exit status is 1 when
the outputs of any workload differ.

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
    def __init__(self, workloads, root: Path, name: str):
        self.workloads = workloads
        self.pp, self.cli = load_package(root, name)
        self.label = f"{name} ({root})"
        self.failures = (self.pp.ApproximationError, ValueError, workloads.OpFailed)
        self.slots = []

    def bind(self) -> None:
        self.workloads.pp, self.workloads.cli = self.pp, self.cli

    def build(self, workload: str, seed: int, out_dir: str) -> None:
        self.bind()
        self.slots = self.workloads.build(workload, seed, out_dir).slots

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


def compare(sides: list, workload: str, rounds: int, seed: int, out_dir: str) -> tuple[bool, str]:
    """Whether the two sides' outputs agree on the workload, and its result line."""
    for side in sides:
        side.build(workload, seed, out_dir)
    fp_a, fp_b = (side.fingerprints() for side in sides)
    differ = [slot.label for slot, a, b in zip(sides[0].slots, fp_a, fp_b) if a != b]
    if differ:
        return False, f"{workload}: outputs differ in {len(differ)} of {len(fp_a)} slots: {', '.join(differ)}"
    times = ([], [])
    for r in range(rounds):
        for i in (0, 1) if r % 2 == 0 else (1, 0):
            times[i].append(sides[i].cycle())
    cycles = []
    for name, t in zip("ab", times):
        q1, med, q3 = statistics.quantiles(t, n=4) if len(t) > 1 else (t[0],) * 3
        cycles.append(f"{name} {1e3 * med:.3f} ms ({1e3 * q1:.3f}-{1e3 * q3:.3f})")
    ratio = statistics.median(a / b for a, b in zip(*times))
    return True, (f"{workload}, seed {seed}, {rounds} rounds, {len(fp_a)} slots, outputs identical: "
                  f"median cycle {', '.join(cycles)}; median per-round ratio a/b {ratio:.4f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("first", type=Path, help="checkout root of side a, such as the parent commit")
    p.add_argument("second", type=Path, help="checkout root of side b, such as the change")
    p.add_argument("workloads", help="comma-separated workload names from benchmarks/workloads.py, or all")
    p.add_argument("rounds", type=int, help="number of rounds per workload, one cycle per side each")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("rounds must be at least 1")
    first, second = args.first.resolve(), args.second.resolve()
    # workloads.py imports padepencil by its own name: take the first root's.
    sys.path[:0] = [str(first / "benchmarks"), str(first / "src")]
    import workloads

    names = list(workloads.WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        p.error(f"unknown workload {', '.join(unknown)}; expected some of {', '.join(workloads.WORKLOADS)} or all")
    sides = [Side(workloads, first, "padepencil_a"), Side(workloads, second, "padepencil_b")]
    for name, side in zip("ab", sides):
        print(f"{name}: {side.label}")
    all_identical = True
    for name in names:
        # One output directory for both sides: some outputs hold their path.
        with tempfile.TemporaryDirectory() as out_dir:
            identical, line = compare(sides, name, args.rounds, args.seed, out_dir)
        all_identical &= identical
        print(line, flush=True)
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
