"""pm2's residue-Vandermonde rule, raw and column-equilibrated, side by side.

Usage (from the repository root)::

    python3 tools/vandermonde_study.py [--out STUDY_28.json]

Runs ``pm2`` twice on every input: once as it stands, where
``pencil.vandermonde_accepts`` takes the column-equilibrated look
where the raw singular-value ratio of D fails ("equilibrated"), and once
with that function replaced by the raw ratio alone ("raw", the rule
before the equilibrated look).  The inputs, all at k = -1 and t = 15:

- ``deep_filter``'s three wide slots (m = 40) at seeds 1-10, built as
  ``benchmarks/workloads.py`` builds them;
- wide inputs from ``tests/helpers.wide_series`` (period 7) at
  amplitudes 4, 5 and 6: seeds 0-9 at m = 12 and 20, seeds 0-2 at m = 40;
- the m = 100-200 table of ROADMAP item N,
  ``oracles.wide_magnitude_series(default_rng(seed), 2m, 6, 9)``.

For each rule it records the passes, the Vandermonde rejections,
``final_l``, the best of a few solve times and the coefficient residual
(``tests/helpers.coefficient_residual``).  For m <= 40 it also records the
worst relative pole and weight errors against the 50-digit pencil
(``tests/helpers.mp_pencil``), each computed pole matched to its nearest
reference pole.  ``changed`` says whether the two rules' poles or weights
differ in any bit.  BLAS runs on one thread.  The 50-digit references
take most of the run: about 7 minutes on one core.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import padepencil as pp  # noqa: E402
import workloads  # noqa: E402
from helpers import coefficient_residual, mp_pencil, wide_series  # noqa: E402
from padepencil import pencil  # noqa: E402
from padepencil.numerics import all_finite, singular_values  # noqa: E402

#: ROADMAP item N's table: (m, seed) of its wide-magnitude inputs.
N_TABLE = ((100, 0), (140, 1), (140, 0), (160, 0), (200, 0))


def raw_accepts(D, t: float) -> bool:
    """The rule before the equilibrated look: the raw ratio alone."""
    if not all_finite(D):
        return False
    dsig = singular_values(D)
    return not dsig[-1] < 10.0 ** (-t) * dsig[0]


@contextmanager
def rule(name):
    saved = pencil.vandermonde_accepts
    if name == "raw":
        pencil.vandermonde_accepts = raw_accepts
    try:
        yield
    finally:
        pencil.vandermonde_accepts = saved


def inputs():
    """(group, label, series) for every input of the study."""
    for seed in range(1, 11):
        for i, (m, amp, period) in enumerate(workloads.WIDE_SLOTS):
            rng = workloads._rng(seed, "deep_filter", 100 + i)
            coeffs = oracles.wide_magnitude_series(rng, 2 * m, amp, period)
            yield "deep_filter", f"seed={seed} slot={i} 10^±{amp} period={period} m={m}", pp.PowerSeries(coeffs, t=15.0)
    for amp in (4.0, 5.0, 6.0):
        for m, seeds in ((12, range(10)), (20, range(10)), (40, range(3))):
            for seed in seeds:
                yield "inline", f"m={m} amplitude={amp:g} seed={seed}", wide_series(m, seed, amp)
    for m, seed in N_TABLE:
        coeffs = oracles.wide_magnitude_series(np.random.default_rng(seed), 2 * m, 6, 9)
        yield "roadmap_n", f"m={m} seed={seed}", pp.PowerSeries(coeffs)


def solve(s, conf, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        sol = pp.pm2(s, conf)
        best = min(best, time.perf_counter() - t0)
    return sol, best


def errors(prf, ref_poles, ref_weights):
    """Worst relative pole and weight errors, nearest-pole matching."""
    j = np.argmin(np.abs(prf.poles[:, None] - ref_poles), axis=1)
    pole = np.abs(prf.poles - ref_poles[j]) / np.abs(ref_poles[j])
    weight = np.abs(prf.weights - ref_weights[j]) / np.abs(ref_weights[j])
    return float(pole.max()), float(weight.max())


def study_case(group, label, s):
    m = s.coeffs.size // 2
    conf = pp.Conformation(m, -1)
    repeats = 2 if m > 40 else 3
    ref = mp_pencil(s.coeffs, m) if m <= 40 else None
    row = {"group": group, "input": label, "m": m}
    sols = {}
    for name in ("raw", "equilibrated"):
        with rule(name):
            sol, seconds = solve(s, conf, repeats)
        sols[name] = sol
        rec = {
            "passes": len(sol.report.iterations),
            "vandermonde_rejections": sol.report.d_matrix_reductions,
            "final_l": sol.report.final_l,
            "time_ms": round(seconds * 1e3, 3),
            "coefficient_residual": float(coefficient_residual(s, conf, sol.prf)),
        }
        if ref is not None:
            rec["worst_pole_error"], rec["worst_weight_error"] = errors(sol.prf, *ref)
        row[name] = rec
    a, b = sols["raw"].prf, sols["equilibrated"].prf
    row["changed"] = not (np.array_equal(a.poles, b.poles) and np.array_equal(a.weights, b.weights))
    return row


def summary(rows):
    changed = [r for r in rows if r["changed"]]
    small = [r for r in changed if r["m"] <= 40]
    eq = [r["equilibrated"] for r in small]
    return {
        "cases": len(rows),
        "changed": len(changed),
        "changed_m_le_40": len(small),
        "changed_m_le_40_poles_within_1e-9": sum(e["worst_pole_error"] <= 1e-9 for e in eq),
        "worst_pole_error_changed_m_le_40": max(e["worst_pole_error"] for e in eq),
        "changed_m_le_40_residual_no_worse": sum(
            r["equilibrated"]["coefficient_residual"] <= r["raw"]["coefficient_residual"] for r in small
        ),
        "one_pass": {name: sum(r[name]["passes"] == 1 for r in rows) for name in ("raw", "equilibrated")},
        "total_time_ms": {
            name: round(sum(r[name]["time_ms"] for r in rows), 1) for name in ("raw", "equilibrated")
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "STUDY_28.json"))
    args = parser.parse_args(argv)
    rows = []
    for group, label, s in inputs():
        rows.append(study_case(group, label, s))
        r = rows[-1]
        print(
            f"{group:12s} {label:44s} raw {r['raw']['passes']:2d}/{r['raw']['final_l']:3d}"
            f"  equilibrated {r['equilibrated']['passes']:2d}/{r['equilibrated']['final_l']:3d}",
            flush=True,
        )
    result = {
        "study": "pm2's residue-Vandermonde rule: raw ratio against the column-equilibrated second look",
        "command": "python3 tools/vandermonde_study.py",
        "host": f"{platform.machine()}, Python {platform.python_version()}, numpy {np.__version__}, one BLAS thread",
        "summary": summary(rows),
        "cases": rows,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
