"""Do two sets of runs of the same code agree within the benchmark's bounds?

Usage (from the repository root)::

    python3 benchmarks/steadiness.py [--runs 10] [--workloads stream_small,studies]
                                     [--seconds N] [--seed 1] [--traced]

Runs ``--runs`` untraced runs per workload with seeds seed..seed+runs-1
(set 1), then as many with the next ``--runs`` seeds (set 2).  For each
workload and end-to-end metric it prints both sets' medians and
quartiles, the spread (interquartile distance over the median) of each
set, and how far set 2's median is worse than set 1's, and marks a metric
FAIL when a spread (except setup_s's) or that drift exceeds the bound
in BENCHMARK.json, or when the share of failed ops differs between sets.
``--traced`` adds two traced runs per workload with the first seed,
checks that their counts repeat exactly, and reports the tracing
overhead against the untraced median of ops_per_s.  Raw results go to
benchmarks/out/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {workload} seed {seed}: outputs incorrect\n{proc.stderr}", file=sys.stderr)
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)
    names = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    raw: dict = {}
    for set_no in (1, 2):
        first_seed = args.seed + (set_no - 1) * args.runs
        for w in names:
            for seed in range(first_seed, first_seed + args.runs):
                r = run_once(w, seed, args.seconds, 0)
                raw.setdefault(w, {}).setdefault(set_no, []).append(r)
                print(f"set {set_no} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)

    ok = True
    print(f"\n{'workload':<14} {'metric':<12} {'median 1':>11} {'median 2':>11} "
          f"{'q1..q3 (set 1)':>23} {'spread 1':>8} {'spread 2':>8} {'worse':>7} {'bound':>6}")
    for w in names:
        sets = raw[w]
        fail_share = [sum(r["failed"] for r in sets[n]) / sum(r["attempted"] for r in sets[n]) for n in (1, 2)]
        if fail_share[0] != fail_share[1]:
            ok = False
            print(f"{w}: FAIL failed-op share differs between sets: {fail_share}")
        for name, m in bounds.items():
            v1 = [r["metrics"][name]["value"] for r in sets[1]]
            v2 = [r["metrics"][name]["value"] for r in sets[2]]
            med1, med2 = statistics.median(v1), statistics.median(v2)
            q1, _, q3 = statistics.quantiles(v1, n=4)
            s1, s2 = stats.spread(v1), stats.spread(v2)
            drift = worse_by(med1, med2, m["better"])
            good = drift <= m["bound"] and (name == "setup_s" or max(s1, s2) <= m["bound"])
            ok &= good
            print(f"{w:<14} {name:<12} {med1:>11.5g} {med2:>11.5g} {q1:>11.5g}..{q3:<11.5g} "
                  f"{s1:>8.3f} {s2:>8.3f} {drift:>+7.3f} {m['bound']:>6.2f} {'ok' if good else 'FAIL'}")

    if args.traced:
        print()
        for w in names:
            t1, t2 = (run_once(w, args.seed, args.seconds, 1) for _ in range(2))
            exact = [k for k, v in t1["metrics"].items() if v["unit"] in ("count", "ratio")]
            moved = [k for k in exact if t1["metrics"][k]["value"] != t2["metrics"][k]["value"]]
            ok &= not moved
            untraced = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in raw[w][1])
            traced = statistics.median([t1["metrics"]["trace.ops_per_s"]["value"], t2["metrics"]["trace.ops_per_s"]["value"]])
            print(f"{w:<14} traced counts {'repeat exactly' if not moved else 'MOVED: ' + ', '.join(moved)}; "
                  f"tracing overhead {1 - traced / untraced:+.1%} of untraced ops_per_s "
                  f"({traced:.5g} vs {untraced:.5g} 1/s)")
            raw[w]["traced"] = [t1, t2]

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(raw, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
