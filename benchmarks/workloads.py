"""The four workloads: seeded inputs, one op per slot, and output checks.

A workload is a fixed cycle of slots.  Each slot holds one seeded input
and one call into padepencil's public functions; the timed loop runs
whole cycles, so every run sees the same mix.  A slot's ``check`` tests
the op's output against the independent references in ``oracles`` and
returns an error message or None.  ``fingerprint`` reduces an output to
a value that must repeat exactly when the same slot runs again.

Calls go through module attributes (``pp.pm2``, ``cli.main``) at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles as O
import padepencil as pp
import padepencil.cli as cli
import tracing

WORKLOADS = ("stream_small", "deep_filter", "studies", "cli_requests")

#: Share of each workload's op time spent in LAPACK, read off a traced
#: run (numerics self time plus pm2's direct SVD, over op time).
STREAM_LAPACK_SHARE = 0.4
DEEP_LAPACK_SHARE = 0.75
STUDIES_LAPACK_SHARE = 0.1
CLI_LAPACK_SHARE = 0.2


class OpFailed(Exception):
    """An op that reported failure without raising, such as a CLI exit code."""


@dataclass
class Slot:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    fingerprint: Callable[[Any], Any]


@dataclass
class Workload:
    name: str
    slots: list
    warmup: list  # zero-argument callables run once before timing
    lapack_share: float  # share of op time in LAPACK, for hostspeed.op_factors
    tail_percentile: float  # op_tail_ms percentile one block of a full-length run supports
    blocks: int  # latency metrics are medians over this many blocks of cycles


def _rng(seed: int, workload: str, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), slot])


def _t(eps: float) -> float:
    return float(-np.log10(eps)) if eps > 0 else 15.0


def _fp_ra(ra) -> tuple:
    return tuple(ra.numer.tolist()), tuple(ra.denom.tolist())


TRIPLE = np.array([1.0, 0.0, 1.0], dtype=complex)


# ---------------------------------------------------------------- checks


def _check_known_poles(res, poles, eps: float, m: int) -> str | None:
    """pm2 keeps exactly the true poles, each within 1e4*eps (100*eps for
    the single-pole geometric series) of its true location."""
    report = res.report
    if report.final_l != len(poles):
        return f"final_l {report.final_l} != true pole count {len(poles)}"
    if report.defect_estimate != 2 * (m - report.final_l):
        return f"defect_estimate {report.defect_estimate} != 2(m - final_l)"
    found = res.prf.poles
    if found.size != len(poles):
        return f"{found.size} poles kept, expected {len(poles)}"
    if len(poles) == 1 and poles[0] == 1:
        err, tol = abs(found[0] - 1.0), 100 * eps
    else:
        err, tol = O.match_poles(found, poles), 1e4 * eps
    if not err <= tol:
        return f"pole error {err:.3g} above {tol:.3g}"
    return None


def _check_log(rational, poles, n: int) -> str | None:
    """Poles on the cut image and the disk error within the Taylor bound."""
    off = [p for p in poles if not O.on_ray(complex(p))]
    if off:
        return f"{len(off)} poles off the cut image, e.g. {off[0]:.4g}"
    z = O.disk_points()
    err = float(np.max(np.abs(O.eval_rational(rational.numer, rational.denom, z) - O.ln_ref(z))))
    tol = max(O.ln_taylor_remainder(n), 1e-12)
    if not err <= tol:
        return f"error {err:.3g} on the radius-1/2 disk above {tol:.3g}"
    return None


def _check_pade(coeffs, numer, denom, m: int, k: int) -> str | None:
    """Linearised Pade conditions and the numerator convolution, both
    against the independently built coefficients."""
    r = O.linearized_residual(coeffs, denom, m, k)
    if not r <= 1e-10:
        return f"linearised Pade residual {r:.3g} above 1e-10"
    want = np.convolve(np.asarray(coeffs)[: m + k + 1], denom)[: m + k + 1]
    if numer.size != want.size or not np.allclose(numer, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want))):
        return "numerator does not match the convolution of coefficients and denominator"
    return None


def _check_finite_report(s_coeffs, m: int, k: int, res) -> str | None:
    """Wide-magnitude inputs: finite outputs and a report whose
    reductions account for every step from m down to final_l."""
    arrays = (res.prf.poles, res.prf.weights, res.rational.numer, res.rational.denom)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return "non-finite output"
    rep = res.report
    with tracing.Tracer() as tr:
        again = pp.pm2(pp.PowerSeries(s_coeffs), pp.Conformation(m, k))
    if again.report.final_l != rep.final_l:
        return "re-solve gave another final_l"
    causes = tracing.pm2_pass_causes(tr.spans())
    if len(causes) != 1:
        return f"traced re-solve saw {len(causes)} pm2 calls"
    c = causes[0]
    removed = (
        sum(it.n_s_removed for it in rep.iterations)
        + len(rep.origin_poles_removed)
        + rep.d_matrix_reductions
        + c["rank_deficient_retry"]
    )
    if rep.final_l != m - removed:
        return f"final_l {rep.final_l} != m - reductions ({m} - {removed})"
    if rep.defect_estimate != 2 * (m - rep.final_l):
        return "defect_estimate != 2(m - final_l)"
    if c["passes"] != len(rep.iterations) or c["vandermonde"] != rep.d_matrix_reductions:
        return "traced passes disagree with the report"
    return None


# ---------------------------------------------------------------- solver slots


def _pm2_slot(label, coeffs, eps, m, k, check) -> Slot:
    t = _t(eps)

    def run():
        return pp.pm2(pp.PowerSeries(coeffs, t=t), pp.Conformation(m, k))

    return Slot(label, run, check, lambda res: _fp_ra(res.rational))


def _known_pm2(label, rng, count, m, eps) -> Slot:
    if count == 1:
        poles, weights = np.array([1.0 + 0j]), np.array([1.0 + 0j])
    else:
        poles, weights = O.well_separated_poles(rng, count)
    coeffs = O.noisy_pole_series(poles, weights, 2 * m, eps, rng)
    return _pm2_slot(label, coeffs, eps, m, -1, lambda r: _check_known_poles(r, poles, eps, m))


def _log_pm2(label, m) -> Slot:
    """pm2 on ln(1.2-z) at the diagonal [m/m], as the stock study runs it."""
    n = 2 * m + 1
    return _pm2_slot(label, O.log_series(n), 0.0, m, 0, lambda r: _check_log(r.rational, r.prf.poles, n))


def _linear_slot(label, method, coeffs, eps, m, k) -> Slot:
    """dm / svd (denominator then numerator) or pm1, checked by the
    linearised Pade conditions; pm1 solves the square pencil at l = m,
    whose eigenvalues are the roots of the Pade denominator."""
    t = _t(eps)
    den_fn = {"dm": "dm_denominator", "svd": "svd_denominator"}.get(method)

    if den_fn is None:

        def run():
            return pp.pm1(pp.PowerSeries(coeffs, t=t), pp.Conformation(m, k)).rational

    else:

        def run():
            s, conf = pp.PowerSeries(coeffs, t=t), pp.Conformation(m, k)
            b = getattr(pp, den_fn)(s, conf)
            return pp.RationalApproximant(pp.numerator_from_denominator(s, b, conf), b)

    return Slot(label, run, lambda ra: _check_pade(coeffs, ra.numer, ra.denom, m, k), _fp_ra)


def _triple_pm2() -> Slot:
    def check(res):
        ok = (
            res.report.final_l == 0
            and res.prf.poles.size == 0
            and np.allclose(res.rational.numer, [1.0], atol=1e-12)
            and np.allclose(res.rational.denom, [1.0], atol=1e-12)
        )
        return None if ok else "degenerate triple: pm2 did not reduce to the head polynomial 1"

    return _pm2_slot("pm2/triple", TRIPLE, 0.0, 1, 0, check)


def stream_small(seed: int) -> Workload:
    """Independent small solves, the inner loop of a power-flow continuation."""
    slots: list[Slot] = []
    i = 0

    def rng():
        nonlocal i
        i += 1
        return _rng(seed, "stream_small", i)

    # pm2: 24 of 40 slots.
    for eps in (1e-3, 1e-6, 1e-10):
        for m in (5, 10, 20):
            slots.append(_known_pm2(f"pm2/geo eps={eps:g} m={m}", rng(), 1, m, eps))
    slots.append(_known_pm2("pm2/geo eps=1e-08 m=15", rng(), 1, 15, 1e-8))
    for count, m, eps in ((2, 10, 1e-6), (3, 10, 1e-8), (4, 15, 1e-10), (5, 20, 1e-8), (6, 20, 1e-10),
                          (6, 15, 1e-6), (2, 20, 1e-10), (3, 12, 1e-6), (4, 12, 1e-8), (5, 16, 1e-6)):
        slots.append(_known_pm2(f"pm2/poles={count} eps={eps:g} m={m}", rng(), count, m, eps))
    for m in (5, 10, 20):
        slots.append(_log_pm2(f"pm2/log m={m}", m))
    slots.append(_triple_pm2())

    # pm1, dm, svd: 16 slots, checked by the linearised Pade conditions.
    def geo(eps, m, r):
        return O.noisy_pole_series([1.0 + 0j], [1.0 + 0j], 2 * m, eps, r)

    def poles(count, eps, m, r, rmax=1.6):
        p, w = O.well_separated_poles(r, count, rmax=rmax)
        return O.noisy_pole_series(p, w, 2 * m, eps, r)

    # pm1 only on series with exactly m poles: on noisy series with
    # fewer, its square residue solve fails on some seeds (see README).
    specs = [
        ("pm1", "poles=5", poles(5, 0.0, 5, rng()), 0.0, 5),
        ("pm1", "poles=5", poles(5, 1e-10, 5, rng()), 1e-10, 5),
        ("pm1", "poles=6", poles(6, 1e-8, 6, rng()), 1e-8, 6),
        ("pm1", "poles=8", poles(8, 0.0, 8, rng(), rmax=2.0), 0.0, 8),
        ("pm1", "poles=10", poles(10, 0.0, 10, rng(), rmax=2.0), 0.0, 10),
        ("dm", "geo", geo(1e-6, 10, rng()), 1e-6, 10),
        ("dm", "geo", geo(1e-3, 20, rng()), 1e-3, 20),
        ("dm", "poles=4", poles(4, 1e-8, 12, rng()), 1e-8, 12),
        ("dm", "log", O.log_series(20), 0.0, 10),
        ("dm", "log", O.log_series(40), 0.0, 20),
        ("svd", "geo", geo(1e-10, 10, rng()), 1e-10, 10),
        ("svd", "poles=3", poles(3, 1e-6, 15, rng()), 1e-6, 15),
        ("svd", "poles=6", poles(6, 1e-10, 20, rng()), 1e-10, 20),
        ("svd", "log", O.log_series(30), 0.0, 15),
    ]
    for method, kind, coeffs, eps, m in specs:
        slots.append(_linear_slot(f"{method}/{kind} eps={eps:g} m={m}", method, coeffs, eps, m, -1))
    # The triple [1, 0, 1] at [1/1]: dm is singular on it by design.
    for method in ("pm1", "svd"):
        slots.append(_linear_slot(f"{method}/triple", method, TRIPLE, 0.0, 1, 0))
    return Workload("stream_small", slots, [s.run for s in slots], STREAM_LAPACK_SHARE, 99.0, 5)


# ---------------------------------------------------------------- deep_filter

#: Wide-magnitude slots (m, amplitude in decades, period).  These
#: profiles keep pm2 at 3 to 6 passes on nearly every seed, failed on
#: none of 300 seeds, and cost less than the log slot at m=200, so that
#: op_tail_ms does not follow the seed.
WIDE_SLOTS = ((40, 5, 7), (40, 5, 9), (40, 6, 9))


def deep_filter(seed: int) -> Workload:
    """pm2 at m 40..200, where the filtering passes and their SVDs dominate.

    13 slots: an odd count puts the median op inside one slot's latencies
    rather than on the edge between two."""
    slots: list[Slot] = []
    for m in (50, 100, 150, 200):
        slots.append(_log_pm2(f"pm2/log m={m}", m))
    for i, (count, m, eps) in enumerate(((3, 50, 1e-8), (2, 80, 1e-6), (4, 100, 1e-8), (3, 120, 1e-8), (5, 150, 1e-10), (6, 200, 1e-10))):
        slots.append(_known_pm2(f"pm2/poles={count} eps={eps:g} m={m}", _rng(seed, "deep_filter", i), count, m, eps))
    for i, (m, amp, period) in enumerate(WIDE_SLOTS):
        coeffs = O.wide_magnitude_series(_rng(seed, "deep_filter", 100 + i), 2 * m, amp, period)
        slots.append(
            _pm2_slot(
                f"pm2/wide 10^±{amp} period={period} m={m}",
                coeffs,
                0.0,
                m,
                -1,
                lambda r, c=coeffs, m=m: _check_finite_report(c, m, -1, r),
            )
        )
    small = _log_pm2("warmup", 20)
    return Workload("deep_filter", slots, [small.run, slots[4].run], DEEP_LAPACK_SHARE, 95.0, 5)


# ---------------------------------------------------------------- studies


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_geometric(result: dict, base: str, method: str) -> str | None:
    rows = _read_csv(f"{base}.samples.csv")
    with open(f"{base}.summary.json") as fh:
        summary = json.load(fh)["summary"]
    cfg = result["config"]
    expected = len(cfg["eps_list"]) * cfg["samples"]
    if len(rows) != expected or len(summary) != len(cfg["eps_list"]):
        return f"{method}: {len(rows)} rows / {len(summary)} summaries, expected {expected} / {len(cfg['eps_list'])}"
    if method == "pm2":
        for r in rows:
            eps = float(r["eps"])
            if r["failed"] != "False":
                return f"pm2 failed on a sample at eps={eps:g}"
            if int(r["n_poles"]) != 1 or int(r["n_doublets"]) != 0:
                return f"pm2 kept {r['n_poles']} poles / {r['n_doublets']} doublets at eps={eps:g}"
            if not float(r["system_pole_error"]) <= 100 * eps:
                return f"pm2 pole error {r['system_pole_error']} above 100*eps at eps={eps:g}"
    return None


def _check_log_branch(result: dict, base: str) -> str | None:
    with open(f"{base}.json") as fh:
        written = json.load(fh)
    if written["mesh"]["points"] <= 0 or written["dm"]["failed"] or written["pm2"]["failed"]:
        return "log-branch: a solve failed or the mesh is empty"
    pm2 = written["pm2"]
    off = [p for p in pm2["poles"] if not O.on_ray(complex(*p))]
    if off or pm2["n_off_ray_poles"] != 0:
        return f"log-branch: {len(off)} pm2 poles off the cut image"
    if not pm2["max_mesh_error"] <= 1e-12:
        return f"log-branch: pm2 mesh error {pm2['max_mesh_error']:.3g} above 1e-12"
    assim = written["assimilation"]
    if assim["failed"] or not assim["pm2_max_error_01"] < assim["naive_max_error_01"]:
        return "log-branch: pm2 assimilation error does not beat pruned refit"
    return None


def studies(seed: int, out_dir: str) -> Workload:
    """The two stock experiments as the README runs them."""
    slots = []
    for method in ("dm", "svd", "pm1", "pm2"):
        base = os.path.join(out_dir, f"geo-{method}")
        cfg = pp.ExperimentConfig(method=method, seed=seed, output_path=base)

        def run(cfg=cfg):
            return pp.run_geometric_noise(cfg)

        slots.append(
            Slot(
                f"geometric-noise {method}",
                run,
                lambda res, base=base, method=method: _check_geometric(res, base, method),
                lambda res: json.dumps(res, sort_keys=True),
            )
        )
    base = os.path.join(out_dir, "log")
    log_cfg = pp.ExperimentConfig(n=41, output_path=base)
    slots.append(
        Slot(
            "log-branch n=41",
            lambda: pp.run_log_branch(log_cfg),
            lambda res: _check_log_branch(res, base),
            lambda res: json.dumps(res, sort_keys=True),
        )
    )
    warm = [
        lambda: pp.run_geometric_noise(pp.ExperimentConfig(eps_list=(1e-6,), samples=1, seed=seed)),
        lambda: pp.run_log_branch(pp.ExperimentConfig(n=11)),
    ]
    return Workload("studies", slots, warm, STUDIES_LAPACK_SHARE, 75.0, 1)


# ---------------------------------------------------------------- cli_requests


def _write_coeffs(path: str, coeffs: np.ndarray) -> None:
    with open(path, "w") as fh:
        if path.endswith(".json"):
            json.dump([[float(c.real), float(c.imag)] for c in coeffs], fh)
        else:
            fh.write("# noisy sum of known poles\n")
            fh.writelines(f"{float(c.real)!r} {float(c.imag)!r}\n" for c in coeffs)


def _emitted_poles(path: str) -> tuple[np.ndarray, dict]:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        payload = json.loads(text)
        return np.array([complex(re, im) for re, im in payload["poles"]]), payload
    rows = [r for r in csv.DictReader(text.splitlines()) if r["kind"] == "poles"]
    return np.array([complex(float(r["re"]), float(r["im"])) for r in rows]), {}


def _check_cli(out: str, method: str, poles, eps: float, m: int) -> str | None:
    found, payload = _emitted_poles(out)
    want = len(poles) if method == "pm2" else m
    if found.size != want:
        return f"{found.size} poles emitted, expected {want}"
    if payload and payload["conformation"]["final_l"] != want:
        return f"final_l {payload['conformation']['final_l']} != {want}"
    err, tol = O.match_poles(found, poles), max(1e4 * eps, 1e-6)
    if not err <= tol:
        return f"pole error {err:.3g} above {tol:.3g}"
    return None


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cli_call(argv) -> int:
    rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"exit code {rc}")
    return rc


def cli_requests(seed: int, out_dir: str) -> Workload:
    """In-process CLI calls: approximate and poles, JSON and text inputs,
    JSON and CSV outputs, all four methods at m = 8..10.  pm1 gets series
    with exactly m poles, the others noisy sums of 2 or 3 poles."""
    slots = []
    i = 0
    for method in ("dm", "svd", "pm1", "pm2"):
        for command in ("approximate", "poles"):
            for in_fmt, out_fmt in (("json", "json"), ("txt", "csv"), ("json", "csv"), ("txt", "json")):
                i += 1
                r = _rng(seed, "cli_requests", i)
                if method == "pm1":
                    m, eps = 8, 0.0
                    poles, weights = O.well_separated_poles(r, m, rmax=2.0)
                else:
                    m, eps = 10, 1e-8
                    poles, weights = O.well_separated_poles(r, 2 + i % 2)
                src = os.path.join(out_dir, f"in-{i}.{in_fmt}")
                _write_coeffs(src, O.noisy_pole_series(poles, weights, 2 * m, eps, r))
                out = os.path.join(out_dir, f"out-{i}.{out_fmt}")
                argv = [command, "--coeffs", src, "--method", method, "--m", str(m), "--k", "-1",
                        "--t", f"{_t(eps):g}", "--format", out_fmt, "--out", out]
                slots.append(
                    Slot(
                        f"{command} {method} {in_fmt}->{out_fmt}",
                        lambda argv=argv: _cli_call(argv),
                        lambda rc, out=out, method=method, poles=poles, m=m, eps=eps: _check_cli(out, method, poles, eps, m),
                        lambda rc, out=out: _read_bytes(out),
                    )
                )
    return Workload("cli_requests", slots, [s.run for s in slots], CLI_LAPACK_SHARE, 99.0, 4)


def build(name: str, seed: int, out_dir: str) -> Workload:
    if name == "stream_small":
        return stream_small(seed)
    if name == "deep_filter":
        return deep_filter(seed)
    if name == "studies":
        return studies(seed, out_dir)
    if name == "cli_requests":
        return cli_requests(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
