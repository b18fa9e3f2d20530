"""Reproducible noise and branch-cut studies over the four solvers.

Two stock experiments:

* geometric noise — approximate 1/(1-z) from noise-corrupted
  coefficients across a grid of noise amplitudes, classify the computed
  roots, and sweep the error over three real-axis ranges (inside the
  disk, approaching the pole, and beyond it);
* log branch — approximate ln(1.2 - z), whose branch cut the
  approximants mimic with a string of real poles and zeros, comparing
  the plain high-order solve against the filtered one and against
  naive after-the-fact pole deletion.

All randomness flows from one master seed through per-sample spawn keys
(eps index, sample index), so adding noise levels or samples never
reshuffles existing draws, and identical configs produce byte-identical
output files.
"""

from __future__ import annotations

import csv
import io
import os
import stat
from dataclasses import asdict, dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .approximant import error_sweep, eval_pole_residue, eval_rational, poles_and_zeros, unit_disk_mesh
from .baseline import Conformation, RationalApproximant, dm_denominator, numerator_from_denominator, svd_denominator
from .classify import classify_roots
from .errors import ApproximationError, Collapse
from .filtering import pm2
from .numerics import complex_pairs
from .pencil import PoleResidueForm, Solution, _with_head, build_blocks, pm1, pm1_poles, pm1_residues
from .series import (PowerSeries, gen_geometric_noisy, gen_log_series, require_accuracy, require_integer,
                     require_noise_amplitude)

METHODS = ("dm", "svd", "pm1", "pm2")

#: Real-axis sweep grids: inside the disk, approaching z=1, beyond it.
INNER_GRID = np.linspace(-0.9, 0.9, 500)
RING_GRID = np.linspace(0.9, 0.99, 500)
OUTER_GRID = np.logspace(np.log10(1.1), 2.0, 500)
#: The three grids back to back, so that each sample is swept once.  A
#: point's error and flag do not depend on the other points, so each
#: grid's part of the sweep is that grid's own sweep.
STUDY_GRID = np.concatenate((INNER_GRID, RING_GRID, OUTER_GRID)).astype(complex)
STUDY_GRID.flags.writeable = False
#: The geometric study's reference 1/(1-z) on STUDY_GRID, the same for
#: every sample.
STUDY_REFERENCE = 1.0 / (1.0 - STUDY_GRID)
STUDY_REFERENCE.flags.writeable = False
_GRID_PARTS = {"inner": slice(0, 500), "ring": slice(500, 1000), "outer": slice(1000, 1500)}

#: Disk mesh used by the branch-cut study: spacing 0.01, radius 1/2.
MESH_SPACING = 0.01
MESH_RADIUS = 0.5

#: The branch-cut image: poles/zeros are genuine when they land on the
#: real ray past the branch point, within a thin tolerance band.
RAY_MIN_RE = 1.1
RAY_MAX_IM = 0.05


def write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` in place; every output file of the CLI
    and the experiments is written here.

    The file is opened without O_TRUNC and written with ``os.write``
    (again after a short write); then, when it is a regular file longer
    than the text, it is cut to the written length.  The text is ASCII,
    so the bytes are those that ``open(path, "w")`` writes, and like it
    this is not atomic.  A symlink is written through, an existing file
    keeps its mode bits, and a device such as /dev/null is not
    truncated.  O_TRUNC would free the file's blocks before the write
    allocates them again; on a filesystem that discards freed blocks
    online (ext4 mounted with ``discard``) that costs several hundred
    microseconds, far more than the write.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


#: JSON spellings of the non-finite floats, keyed by ``float.__repr__``.
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)`` for dicts with string keys, lists,
    tuples, strings, ints, floats, bools and None, which is all the
    package writes.

    With an indent, ``json`` runs its pure-Python encoder; this writer
    joins each container's items in one step instead.  Like ``json``,
    floats (subclasses too) print by ``float.__repr__``, and NaN and the
    infinities as NaN, Infinity and -Infinity.  Any other value, and a
    key that is not a string, raises TypeError.
    """
    return _json(obj, "\n")


def _json(obj, newline: str) -> str:
    """One value of ``json_text``, with its items on lines that start with
    ``newline`` plus two spaces."""
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _JSON_FLOATS.get(text, text)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json(item, inner) for item in obj]) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [f"{encode_basestring_ascii(key)}: {_json(value, inner)}" for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@dataclass
class ExperimentConfig:
    """Inputs of one experiment run; see the runner docstrings."""

    n: int = 20
    m: int = 10
    k: int = -1
    eps_list: tuple = (1e-3, 1e-6, 1e-10)
    samples: int = 10
    seed: int = 101
    t: float | None = None
    method: str = "pm2"
    output_path: str | None = None


def _require_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


def approximate_series(s: PowerSeries, conf: Conformation, method: str) -> Solution:
    """Run one solver on one series and return its Solution.

    ``method`` is one of dm, svd, pm1, pm2; pm2 filters at the series'
    accuracy ``s.t``.  dm and svd give no pole-residue form, and only
    pm2 gives a report.  No root is extracted: a caller that needs the
    poles and zeros calls ``poles_and_zeros`` on ``rational``, and one
    that needs only the poles ``sorted_roots`` on its denominator.
    Solver failures propagate as the usual ApproximationError
    subclasses.
    """
    _require_method(method)
    if method == "pm1":
        return pm1(s, conf)
    if method == "pm2":
        return pm2(s, conf)
    denom = (dm_denominator if method == "dm" else svd_denominator)(s, conf)
    return Solution(None, RationalApproximant._of(numerator_from_denominator(s, denom, conf), denom))


def sample_rng(seed: int, eps_index: int, sample_index: int) -> np.random.Generator:
    """Per-sample stream: spawn key (eps index, sample index) off the
    master seed, stable under appending eps values or samples."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(eps_index, sample_index)))


GEOMETRIC_CSV_COLUMNS = [
    "eps",
    "sample",
    "method",
    "failed",
    "error_type",
    "n_poles",
    "system_pole_error",
    "n_system",
    "n_doublets",
    "n_far_poles",
    "n_far_zeros",
    "n_unclassified",
    "final_l",
    "defect_estimate",
    "max_err_inner",
    "max_err_ring",
    "max_err_outer",
    "n_flagged_inner",
    "n_flagged_ring",
    "n_flagged_outer",
]


#: (summary key, sample column) in summary order.  A worst_ key is the
#: column's maximum over the successful samples, a mean_ key its mean.
SUMMARY_COLUMNS = (
    ("mean_system_pole_error", "system_pole_error"),
    ("mean_n_poles", "n_poles"),
    ("mean_doublets", "n_doublets"),
    ("mean_far_poles", "n_far_poles"),
    ("mean_far_zeros", "n_far_zeros"),
    ("mean_unclassified", "n_unclassified"),
    ("mean_final_l", "final_l"),
    *(
        (f"{agg}_max_err_{grid}", f"max_err_{grid}")
        for grid in ("inner", "ring", "outer")
        for agg in ("mean", "worst")
    ),
)


def _geometric_row(eps: float, sample: int, cfg: ExperimentConfig, sol: Solution | None, roots, exc) -> dict:
    """A sample's CSV row from ``sol`` and its (poles, zeros), or a failed row naming ``exc``."""
    row = {c: "" for c in GEOMETRIC_CSV_COLUMNS}
    row.update(eps=eps, sample=sample, method=cfg.method, failed=exc is not None)
    if exc is not None:
        row["error_type"] = type(exc).__name__
        return row
    poles, zeros = roots
    sweep = error_sweep(lambda z: eval_rational(sol.rational, z), lambda z: STUDY_REFERENCE, STUDY_GRID)
    tax = classify_roots(poles, zeros, [1.0 + 0j], eps=eps)
    if poles.size:
        row["system_pole_error"] = float(np.min(np.abs(poles - 1.0)))
    row.update(
        n_poles=poles.size,
        n_system=len(tax.system_poles),
        n_doublets=len(tax.doublets),
        n_far_poles=len(tax.far_poles),
        n_far_zeros=len(tax.far_zeros),
        n_unclassified=len(tax.unclassified),
        final_l=sol.final_l,
        defect_estimate=sol.report.defect_estimate if sol.report is not None else "",
    )
    for name, part in _GRID_PARTS.items():
        row[f"max_err_{name}"] = sweep.max_unflagged(part)
        row[f"n_flagged_{name}"] = int(np.count_nonzero(sweep.flagged[part]))
    return row


def _python(v):
    """A numpy scalar as the Python number it holds; anything else as is."""
    return v.item() if isinstance(v, np.generic) else v


def _mean(values) -> float | None:
    values = [v for v in values if v != "" and v is not None]
    return float(np.mean(values)) if values else None


def run_geometric_noise(cfg: ExperimentConfig) -> dict:
    """Noise study on 1/(1-z): per-sample rows plus per-eps aggregates.

    For each eps in cfg.eps_list, draws cfg.samples coefficient vectors
    of 1*(1+eps*u) with u uniform on [-1, 1), runs cfg.method at
    [m+k/m], classifies roots against the single expected pole at 1,
    and sweeps errors over the three stock grids.  A sample whose solve
    or root extraction fails gives a failed row.  The filtering
    accuracy is cfg.t when set, else the t that gen_geometric_noisy
    gives the series.

    With cfg.output_path set, writes {path}.samples.csv and
    {path}.summary.json; the returned dict holds config, rows and
    summary either way.  A count or seed that is not an integer, a
    negative sample count, an unknown method, an eps_list that is not a
    sequence of amplitudes in [0, 1) and a set t that is not positive
    raise ValueError before any draw.  Then numpy scalars among the
    counts, the eps and t become the Python numbers they hold, so they
    give the same rows, summary, config and files as Python numbers.
    Each eps_list entry, repeated or not, has its own samples and
    summary entry.
    """
    counts = ("n", "m", "k", "samples", "seed")
    for name in counts:
        require_integer(name, getattr(cfg, name))
    if cfg.samples < 0:
        raise ValueError(f"samples must be >= 0, got {cfg.samples}")
    _require_method(cfg.method)
    if np.ndim(cfg.eps_list) != 1:
        raise ValueError(f"eps_list must be a sequence of noise amplitudes, got {cfg.eps_list!r}")
    for eps in cfg.eps_list:
        require_noise_amplitude(eps)
    if cfg.t is not None:
        require_accuracy(cfg.t)
    cfg = replace(cfg, eps_list=tuple(_python(eps) for eps in cfg.eps_list), t=_python(cfg.t),
                  **{name: _python(getattr(cfg, name)) for name in counts})
    conf = Conformation(m=cfg.m, k=cfg.k)
    if conf.n > cfg.n:
        raise ValueError(f"[{cfg.m + cfg.k}/{cfg.m}] needs {conf.n} coefficients but cfg.n={cfg.n}")
    rows = []
    for ei, eps in enumerate(cfg.eps_list):
        for si in range(cfg.samples):
            s = gen_geometric_noisy(cfg.n, eps, sample_rng(cfg.seed, ei, si))
            if cfg.t is not None:
                s = replace(s, t=cfg.t)
            try:
                sol = approximate_series(s.truncate(conf.n), conf, cfg.method)
                roots = poles_and_zeros(sol.rational)
            except ApproximationError as exc:
                rows.append(_geometric_row(eps, si, cfg, None, None, exc))
            else:
                rows.append(_geometric_row(eps, si, cfg, sol, roots, None))
    summary = []
    for ei, eps in enumerate(cfg.eps_list):
        sub = rows[ei * cfg.samples : (ei + 1) * cfg.samples]
        ok = [r for r in sub if not r["failed"]]
        entry = {"eps": eps, "samples": len(sub), "failures": len(sub) - len(ok)}
        for key, column in SUMMARY_COLUMNS:
            values = [r[column] for r in ok]
            entry[key] = max(values, default=None) if key.startswith("worst_") else _mean(values)
        summary.append(entry)
    result = {"config": asdict(cfg), "rows": rows, "summary": summary}
    if cfg.output_path:
        _write_geometric(cfg.output_path, result)
    return result


def _write_geometric(path: str, result: dict) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=GEOMETRIC_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(result["rows"])  # floats by repr, the rest by str
    write_output(f"{path}.samples.csv", buf.getvalue())
    view = {"config": result["config"], "summary": result["summary"]}
    write_output(f"{path}.summary.json", json_text(view) + "\n")


def on_ray(p: complex) -> bool:
    """Whether a root sits on the branch-cut image ray."""
    return p.real >= RAY_MIN_RE and abs(p.imag) <= RAY_MAX_IM


def pruned_square_refit(s: PowerSeries, conf: Conformation) -> PoleResidueForm:
    """Naive cleanup baseline: delete off-ray poles, re-solve residues.

    Runs the unfiltered pencil with its rank check disabled (so it
    yields all m poles even from a numerically rank-deficient block),
    keeps only poles on the ray (all of which lie outside pm2's origin
    radius), and re-solves the square residue system for the survivors.
    No information from the deleted poles is reassimilated, which is
    precisely what limits this baseline's accuracy.  With no pole on the
    ray there is nothing to refit, and Collapse is raised.
    """
    all_poles = pm1_poles(build_blocks(s, conf), rank_rtol=0.0)
    kept = np.array([p for p in all_poles if on_ray(p)])
    if kept.size == 0:
        raise Collapse(f"no pole of the unfiltered pencil lies on the ray ({all_poles.size} off it)")
    return _with_head(s, conf.k, kept, pm1_residues(s, kept, conf))


def run_log_branch(cfg: ExperimentConfig) -> dict:
    """Branch-cut study on ln(1.2 - z).

    Builds the order-[m/m] approximant with m = (n-1)//2 from the first
    n coefficients, once with the direct method and once with the
    filtered pencil, and evaluates both on the disk mesh of spacing 0.01
    and radius 1/2.  Also reports the pole-deletion baseline against the
    filtered solver on [0, 1].  The series carry t = cfg.t, default 14.
    An n that is not an integer, or below 3, raises ValueError first.

    With cfg.output_path set, writes {path}.json.
    """
    require_integer("n", cfg.n)
    n = _python(cfg.n)
    t = _python(cfg.t) if cfg.t is not None else 14.0
    m = (n - 1) // 2
    if n < 3:
        raise ValueError(f"log-branch needs n >= 3 coefficients, so that m >= 1; got n={n}, m={m}")
    conf = Conformation(m=m, k=0)
    log = replace(gen_log_series(n), t=t)
    s = log.truncate(conf.n)
    mesh = MESH_RADIUS * unit_disk_mesh(MESH_SPACING / MESH_RADIUS)
    mesh_ref = np.log(1.2 - mesh)  # shared by the two solves' sweeps

    result = {
        "experiment": "log_branch",
        "n": n,
        "t": t,
        "conformation": {"m": m, "k": 0},
        "mesh": {"spacing": MESH_SPACING, "radius": MESH_RADIUS, "points": int(mesh.size)},
    }

    for method in ("dm", "pm2"):
        try:
            sol = approximate_series(s, conf, method)
            poles, zeros = poles_and_zeros(sol.rational)
        except ApproximationError as exc:
            result[method] = {"failed": True, "error_type": type(exc).__name__, "error": str(exc)}
            continue
        sweep = error_sweep(lambda z: eval_rational(sol.rational, z), lambda z: mesh_ref, mesh)
        off_ray = [p for p in poles if not on_ray(p)]
        entry = {
            "failed": False,
            "final_l": sol.final_l,
            "max_mesh_error": sweep.max_unflagged(),
            "n_flagged": int(np.count_nonzero(sweep.flagged)),
            "poles": complex_pairs(poles),
            "zeros": complex_pairs(zeros),
            "n_off_ray_poles": len(off_ray),
            "off_ray_poles": complex_pairs(off_ray),
        }
        if sol.report is not None:
            entry["report"] = sol.report.to_dict()
        result[method] = entry

    # Pole-deletion comparison on the near-diagonal conformation
    # [m-1/m] from an even coefficient count, where discarding the
    # spurious poles of the unfiltered pencil demonstrably loses
    # information that the filtered solver reassimilates.
    grid01 = np.linspace(0.0, 1.0, 500).astype(complex)
    ref01 = np.log(1.2 - grid01)
    conf_nd = Conformation(m=m, k=-1)
    s_nd = log.truncate(conf_nd.n)
    try:
        naive = pruned_square_refit(s_nd, conf_nd)
        naive_sweep = error_sweep(lambda z: eval_pole_residue(naive, z), lambda z: ref01, grid01)
        res2 = approximate_series(s_nd, conf_nd, "pm2")
        pm2_sweep = error_sweep(lambda z: eval_rational(res2.rational, z), lambda z: ref01, grid01)
        assim = {
            "failed": False,
            "conformation": {"m": m, "k": -1},
            "n_kept_poles": naive.poles.size,
            "naive_max_error_01": naive_sweep.max_unflagged(),
            "pm2_final_l": res2.final_l,
            "pm2_max_error_01": pm2_sweep.max_unflagged(),
        }
    except ApproximationError as exc:
        assim = {"failed": True, "error_type": type(exc).__name__, "error": str(exc)}
    result["assimilation"] = assim

    if cfg.output_path:
        write_output(f"{cfg.output_path}.json", json_text(result) + "\n")
    return result
