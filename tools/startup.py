"""Time padepencil's cold start: fresh interpreters, one BLAS thread.

Usage (from the repository root)::

    python3 tools/startup.py

Runs RUNS fresh interpreters of each of two commands, alternating:

* ``import padepencil``;
* ``python3 -m padepencil.cli approximate`` at m = 10, k = 0 on a JSON
  file of the 21 Maclaurin coefficients of ln(1.2 - z), written to a
  temporary directory.

Each command first runs once untimed, so byte-compilation and a cold
file cache do not count.  For each command it prints the median and the
quartiles (``statistics.quantiles``, n=4) of the wall time from start to
exit, and the median of the processes' max RSS.

The interpreters import padepencil from ``PYTHONPATH`` when it is set,
and from this checkout's ``src/`` otherwise, so two checkouts are
compared by running the tool with ``PYTHONPATH`` at each one's ``src/``.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUNS = 15
SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
ENV.setdefault("PYTHONPATH", str(SRC))


def run_once(argv) -> tuple:
    """Wall seconds and max RSS in MB of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=ENV, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with status {proc.returncode}")
    return elapsed, usage.ru_maxrss / 1024


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        coeffs = Path(tmp) / "log-21.json"
        coeffs.write_text(json.dumps([math.log(1.2)] + [-(1 / j) / 1.2**j for j in range(1, 21)]))
        commands = {
            "import padepencil": [sys.executable, "-c", "import padepencil"],
            "cli approximate m=10": [sys.executable, "-m", "padepencil.cli", "approximate", "--coeffs",
                                     str(coeffs), "--m", "10", "--k", "0"],
        }
        for argv in commands.values():
            run_once(argv)
        samples = {name: [] for name in commands}
        for _ in range(RUNS):
            for name, argv in commands.items():
                samples[name].append(run_once(argv))
    print(f"PYTHONPATH={ENV['PYTHONPATH']}, {RUNS} runs each, one BLAS thread")
    for name, runs in samples.items():
        ms = [1e3 * t for t, _ in runs]
        q1, med, q3 = statistics.quantiles(ms, n=4)
        rss = statistics.median(r for _, r in runs)
        print(f"{name:22s} median {med:6.1f} ms  quartiles {q1:6.1f} {q3:6.1f} ms  max RSS {rss:5.1f} MB")


if __name__ == "__main__":
    main()
