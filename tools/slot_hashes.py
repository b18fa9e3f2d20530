"""Print the SHA-256 of every benchmark slot output, for bitwise comparison.

Usage (from the repository root)::

    python3 tools/slot_hashes.py > tests/golden/slots.sha256

Builds the ``stream_small``, ``deep_filter`` and ``cli_requests``
workloads of ``benchmarks/workloads.py`` at seeds 1, 2 and 3, runs each
slot once and prints one line per slot: the digest, then workload, seed,
slot index and label.  A digest covers the slot's ``fingerprint`` (the
approximant's coefficients, or the bytes of a CLI output file) and,
for a pm2 result, every ``FilterIteration.singular_values``; a slot
that fails is hashed by its error.  The ``studies`` workload is left
out: its outputs are the stock experiments, which
``tools/stock_outputs.py`` writes.  The CLI slots write their inputs
and outputs in a temporary directory.  BLAS runs on one thread, as in
the benchmark.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

import padepencil as pp  # noqa: E402
import workloads  # noqa: E402

NAMES = ("stream_small", "deep_filter", "cli_requests")
SEEDS = (1, 2, 3)


def slot_digest(slot) -> str:
    h = hashlib.sha256()
    try:
        out = slot.run()
    except (pp.ApproximationError, ValueError, workloads.OpFailed) as exc:
        h.update(f"error: {type(exc).__name__}: {exc}".encode())
        return h.hexdigest()
    fp = slot.fingerprint(out)
    h.update(fp if isinstance(fp, bytes) else repr(fp).encode())
    for iteration in getattr(getattr(out, "report", None), "iterations", ()):
        h.update(np.ascontiguousarray(iteration.singular_values).tobytes())
    return h.hexdigest()


def manifest_lines() -> list:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            for seed in SEEDS:
                wl = workloads.build(name, seed, tmp)
                lines += [f"{slot_digest(slot)}  {name} {seed} {i} {slot.label}" for i, slot in enumerate(wl.slots)]
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 1:
        sys.exit(__doc__)
    print("\n".join(manifest_lines()))
