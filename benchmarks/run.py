"""Benchmark of padepencil: one workload, one seed, one closed-loop caller.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload stream_small --seed 1 --seconds 25 --trace 0

Runs whole cycles of the workload's seeded ops until ``--seconds`` have
passed, scales their timings for host speed (see hostspeed.py), checks
the outputs against independent references, and prints
as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps the package's layers and reports the
per-layer metrics instead, writing the spans to
``benchmarks/out/trace-<workload>-<seed>.csv``.

The package is imported from ``src/`` beside this directory; without it
the runner exits with status 2 and prints no result.
"""

import os
import sys
import time

# Pin the BLAS thread pools before numpy loads.  At OpenBLAS's default
# two threads on a 2-CPU host, pm2 at m=50 burns twice its wall time in
# CPU, and in one process of four 25 of 60 calls stalled at 10-37 ms
# against about 1.5 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import padepencil from this checkout's src/, or exit with status 2."""
    if not (SRC / "padepencil" / "__init__.py").is_file():
        fail(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import padepencil

    if Path(padepencil.__file__).resolve().parent != SRC / "padepencil":
        fail(f"imported padepencil from {padepencil.__file__}, not {SRC}")


def setup(workload: str, seed: int, out_dir: Path):
    """Imports, input generation and warm-up: everything before the first timed op."""
    import_package()
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(workload, seed, str(out_dir))
    for fn in wl.warmup:
        fn()
    return wl


def probe_setup(args) -> float:
    """Time from starting a fresh interpreter to the end of its setup,
    scaled by the host speed measured just before and after."""
    import hostspeed

    before = hostspeed.time_reference()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        fail(f"setup probe exited with status {code}")
    after = hostspeed.time_reference()
    # Setup is imports and input generation: interpreter work.
    return elapsed * hostspeed.op_factors([before, after], [0], 0.0)[0]


class Run:
    """What the timed loop saw."""

    def __init__(self, n_slots: int):
        self.lat: list[float] = []  # wall seconds per op
        self.windows: list[int] = []  # last reference sample before each op
        self.refs: list[tuple] = []  # reference kernel times (interpreter, LAPACK)
        self.failures = 0
        self.messages: list[str] = []
        self.first = [None] * n_slots
        self.first_fp = None
        self.last_fp = None
        self.cycles = 0


def timed_loop(wl, seconds: float, tracer) -> Run:
    """Whole cycles of the workload's slots until ``seconds`` have passed,
    with the host-speed reference kernel between ops every
    REF_INTERVAL_S seconds."""
    import hostspeed
    import padepencil as pp
    import workloads

    slots = wl.slots
    run = Run(len(slots))
    last = [None] * len(slots)
    clock = time.perf_counter
    start = clock()
    run.refs.append(hostspeed.time_reference())
    next_ref = clock() + hostspeed.REF_INTERVAL_S
    while True:
        out = run.first if run.cycles == 0 else last
        for i, slot in enumerate(slots):
            if clock() >= next_ref:
                run.refs.append(hostspeed.time_reference())
                next_ref = clock() + hostspeed.REF_INTERVAL_S
            run.windows.append(len(run.refs) - 1)
            t0 = clock()
            try:
                res = slot.run() if tracer is None else tracer.run_op(len(run.lat), slot.run)
            except (pp.ApproximationError, ValueError, workloads.OpFailed) as exc:
                res = None
                run.failures += 1
                if len(run.messages) < 10:
                    run.messages.append(f"{slot.label}: {type(exc).__name__}: {exc}")
            run.lat.append(clock() - t0)
            out[i] = res
        if run.cycles == 0:
            run.first_fp = [s.fingerprint(r) if r is not None else None for s, r in zip(slots, run.first)]
        run.cycles += 1
        if clock() - start >= seconds:
            break
    run.refs.append(hostspeed.time_reference())
    if run.cycles > 1:
        run.last_fp = [s.fingerprint(r) if r is not None else None for s, r in zip(slots, last)]
    return run


def check_outputs(wl, run: Run) -> list[str]:
    problems = []
    for i, slot in enumerate(wl.slots):
        if run.first[i] is None:
            continue
        msg = slot.check(run.first[i])
        if msg:
            problems.append(f"{slot.label}: {msg}")
        if run.last_fp is not None and run.last_fp[i] != run.first_fp[i]:
            problems.append(f"{slot.label}: output of the last cycle differs from the first")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    if args.setup_probe:
        try:
            setup(args.workload, args.seed, out_dir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return 0

    if not (SRC / "padepencil" / "__init__.py").is_file():
        fail(f"no package source at {SRC}")
    setup_times = [probe_setup(args) for _ in range(SETUP_PROBES)]
    try:
        t_setup = time.perf_counter()
        wl = setup(args.workload, args.seed, out_dir)
        own_setup = time.perf_counter() - t_setup
        import hostspeed
        import tracing

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            with tracer:
                run = timed_loop(wl, args.seconds, tracer)
        else:
            run = timed_loop(wl, args.seconds, None)
        problems = check_outputs(wl, run)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for line in run.messages + problems:
        print(f"FAIL {line}", file=sys.stderr)
    factors = hostspeed.op_factors(run.refs, run.windows, wl.lapack_share)
    scaled = [t * f for t, f in zip(run.lat, factors)]
    n_slots = len(wl.slots)
    ops_per_s, p50, tail, tail_ps = stats.blockwise(scaled, n_slots, wl.blocks, wl.tail_percentile)
    raw_ops_per_s, raw_p50, raw_tail, _ = stats.blockwise(run.lat, n_slots, wl.blocks, wl.tail_percentile)

    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(scaled), sum(scaled))
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(str(OUT / f"trace-{args.workload}-{args.seed}.csv"))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for i, slot in enumerate(wl.slots):
        own = scaled[i::n_slots]
        print(f"# slot {slot.label}: median {statistics.median(own) * 1e3:.4g} ms over {len(own)} ops")
    ops = len(scaled)
    print(
        f"# {args.workload} seed={args.seed}: {ops} ops in {run.cycles} cycles of {n_slots} slots, "
        f"metrics are medians over {len(tail_ps)} blocks of {ops // len(tail_ps)} ops; op_tail_ms is "
        f"p{'/'.join(sorted({f'{p:g}' for p in tail_ps}))} ({stats.beyond(ops // len(tail_ps), tail_ps[0])} "
        f"samples beyond per block)\n"
        f"# wall clock before host-speed scaling: {raw_ops_per_s:.6g} ops/s, p50 {raw_p50 * 1e3:.6g} ms, "
        f"tail {raw_tail * 1e3:.6g} ms, {sum(run.lat):.2f} s busy; reference kernel medians "
        f"{statistics.median(r[0] for r in run.refs) * 1e3:.4g} ms (interpreter) and "
        f"{statistics.median(r[1] for r in run.refs) * 1e3:.4g} ms (LAPACK) over {len(run.refs)} samples, "
        f"nominal {hostspeed.NOMINAL_INTERP_S * 1e3:g} and {hostspeed.NOMINAL_LAPACK_S * 1e3:g} ms\n"
        f"# setup probes {', '.join(f'{t:.3f}' for t in setup_times)} s, in-process setup {own_setup:.3f} s"
    )
    result = {
        "correct": not problems,
        "attempted": ops,
        "failed": run.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
