"""Span tracing of padepencil's layers from outside the package.

While a :class:`Tracer` is active, each public function in ``SPANS`` is
replaced, at every padepencil module that bound it by name, with a
wrapper that records one span: name, start, end, parent span, op id, an
outcome flag, and for some layers the size of the work.  Functions in
``COUNTS`` are only counted, because they run per coefficient or per
evaluation point and a span each would swamp the run.  Spans stay in
memory until the run ends.

Self time is a span's duration minus the part of it its child spans
cover.  ``filtering.pm2`` calls ``np.linalg.svd`` directly for its
residue conditioning check, so that time is pm2 self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

import padepencil.cli  # noqa: F401  (the package does not import cli itself)
from padepencil import series
from padepencil.errors import RankDeficient

#: Layers recorded as spans: module-level functions, plus the
#: PowerSeries constructor.
SPANS = (
    "series.PowerSeries",
    "numerics.svd",
    "numerics.eigenvalues",
    "numerics.qr_solve",
    "numerics.polynomial_roots",
    "baseline.dm_denominator",
    "baseline.svd_denominator",
    "baseline.numerator_from_denominator",
    "pencil.combined_window",
    "pencil.build_blocks",
    "pencil.pm1_poles",
    "pencil.residue_system",
    "pencil.pm1_residues",
    "pencil.to_rational",
    "pencil.pm1",
    "filtering.pm2",
    "filtering.reduced_poles",
    "approximant.poles_and_zeros",
    "approximant.error_sweep",
    "approximant.unit_disk_mesh",
    "classify.classify_roots",
    "experiments.approximate_series",
    "experiments.run_geometric_noise",
    "experiments.run_log_branch",
    "experiments.pruned_square_refit",
    "cli.main",
    "cli.build_parser",
    "cli.load_coefficients",
)

#: Layers recorded as call counts only.
COUNTS = (
    "series.PowerSeries.coeff",
    "approximant.eval_rational",
    "approximant.eval_pole_residue",
)

OP = "op"
FLAG_OK, FLAG_RANK_DEFICIENT, FLAG_ERROR = 0, 1, 2
FIELDS = 9  # id, name, t0, t1, parent, op, flag, size_a, size_b


class Span(NamedTuple):
    id: int
    name: str
    t0: int  # ns
    t1: int
    parent: int  # -1 for a root
    op: int
    flag: int
    size_a: int
    size_b: int


def _size_hook(name: str):
    """Work size recorded with the span: the matrix shape for svd, the
    number of points for error_sweep."""
    if name == "numerics.svd":
        return lambda args, kw: np.shape(args[0])
    if name == "approximant.error_sweep":
        return lambda args, kw: (np.size(args[2]), 0)
    return None


def _resolve(name: str):
    """(owner object, attribute) for a dotted layer name."""
    module, _, attr = name.partition(".")
    if name == "series.PowerSeries":
        return series.PowerSeries, "__init__"
    if name == "series.PowerSeries.coeff":
        return series.PowerSeries, "coeff"
    return sys.modules[f"padepencil.{module}"], attr


class Tracer:
    """Context manager that installs the span and count wrappers."""

    def __init__(self):
        self.names: list[str] = [OP, *SPANS]
        self.records = array("d")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack = [-1]
        self._next_id = 0
        self._patches: list = []

    # -- installation

    def __enter__(self) -> "Tracer":
        for name_id, name in enumerate(SPANS, start=1):
            self._install(name, self._span_wrapper(name_id, name))
        for name in COUNTS:
            self._install(name, lambda fn, name=name: self._count_wrapper(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install(self, name: str, make_wrapper) -> None:
        owner, attr = _resolve(name)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "padepencil" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _span_wrapper(self, name_id: int, name: str):
        records, stack, clock = self.records, self._stack, time.perf_counter_ns
        size = _size_hook(name)
        tracer = self

        def make(fn):
            def wrapper(*args, **kw):
                sid = tracer._next_id
                tracer._next_id = sid + 1
                parent = stack[-1]
                a, b = size(args, kw) if size is not None else (0, 0)
                stack.append(sid)
                flag = FLAG_OK
                t0 = clock()
                try:
                    return fn(*args, **kw)
                except RankDeficient:
                    flag = FLAG_RANK_DEFICIENT
                    raise
                except BaseException:
                    flag = FLAG_ERROR
                    raise
                finally:
                    t1 = clock()
                    stack.pop()
                    records.extend((sid, name_id, t0, t1, parent, tracer.op, flag, a, b))

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- ops

    def run_op(self, op_id: int, fn):
        """Run one op under a root span named ``op``."""
        self.op = op_id
        wrapped = self._span_wrapper(0, OP)(fn)
        try:
            return wrapped()
        finally:
            self.op = -1

    # -- output

    def spans(self) -> list[Span]:
        rec = self.records
        names = self.names
        out = []
        for i in range(0, len(rec), FIELDS):
            r = rec[i : i + FIELDS]
            out.append(Span(int(r[0]), names[int(r[1])], int(r[2]), int(r[3]), int(r[4]), int(r[5]), int(r[6]), int(r[7]), int(r[8])))
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op,flag,size_a,size_b\n")
            for s in self.spans():
                fh.write(",".join(map(str, s)) + "\n")
            for name, n in sorted(self.counts.items()):
                fh.write(f"# count {name} {n}\n")


# ---------------------------------------------------------------- arithmetic


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of each span in ns: its duration minus the union of its
    children's intervals, clipped to the span."""
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, end = 0, s.t0
        for c0, c1 in sorted(children.get(s.id, ())):
            c0, c1 = max(c0, end), min(c1, s.t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[s.id] = (s.t1 - s.t0) - covered
    return out


PASS_CAUSES = ("rank_filter", "origin_drop", "vandermonde", "rank_deficient_retry")


def pm2_pass_causes(spans: list[Span]) -> list[dict]:
    """How each pm2 call's passes ended, read from its direct children.

    Each pass opens with ``pencil.combined_window``.  A pass with no
    ``filtering.reduced_poles`` ended in the rank filter; one whose
    reduced_poles raised RankDeficient is a retry; one with no
    ``pencil.residue_system`` dropped origin poles; one whose residue
    system was not followed by the ``numerics.qr_solve`` of the weights
    failed the Vandermonde check; the rest were accepted.
    """
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    out = []
    for s in spans:
        if s.name != "filtering.pm2":
            continue
        passes: list[list[Span]] = []
        for c in sorted(kids.get(s.id, ()), key=lambda c: c.t0):
            if c.name == "pencil.combined_window":
                passes.append([])
            if passes:
                passes[-1].append(c)
        tally = dict.fromkeys(PASS_CAUSES, 0)
        tally["accepted"] = 0
        for p in passes:
            names = [c.name for c in p]
            if "filtering.reduced_poles" not in names:
                tally["rank_filter"] += 1
            elif any(c.name == "filtering.reduced_poles" and c.flag == FLAG_RANK_DEFICIENT for c in p):
                tally["rank_deficient_retry"] += 1
            elif "pencil.residue_system" not in names:
                tally["origin_drop"] += 1
            elif "numerics.qr_solve" in names[names.index("pencil.residue_system") :]:
                tally["accepted"] += 1
            else:
                tally["vandermonde"] += 1
        tally["passes"] = len(passes)
        out.append(tally)
    return out


def layer_metrics(tracer: Tracer, ops: int, elapsed_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as (value, unit), over ``ops`` ops."""
    spans = tracer.spans()
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def per_op(x):
        return x / ops

    def self_us(name):
        got = by_name.get(name, ())
        return sum(own[s.id] for s in got) / len(got) / 1e3 if got else 0.0

    def module_self_ms_per_op(module):
        total = sum(own[s.id] for s in spans if s.name.split(".")[0] == module)
        return per_op(total / 1e6)

    m: dict[str, tuple[float, str]] = {}
    m["series.PowerSeries.calls_per_op"] = (per_op(calls("series.PowerSeries")), "count")
    m["series.PowerSeries.self_us_per_call"] = (self_us("series.PowerSeries"), "us")
    m["series.PowerSeries.coeff.calls_per_op"] = (per_op(tracer.counts["series.PowerSeries.coeff"]), "count")

    svds = by_name.get("numerics.svd", ())
    full = sum(p * p + q * q for p, q in ((s.size_a, s.size_b) for s in svds))
    econ = sum(min(p, q) * (p + q) for p, q in ((s.size_a, s.size_b) for s in svds))
    m["numerics.svd.calls_per_op"] = (per_op(len(svds)), "count")
    m["numerics.svd.self_us_per_call"] = (self_us("numerics.svd"), "us")
    m["numerics.svd.useful_elems_ratio"] = (econ / full if full else 0.0, "ratio")
    m["numerics.eigenvalues.self_us_per_call"] = (self_us("numerics.eigenvalues"), "us")
    m["numerics.qr_solve.self_us_per_call"] = (self_us("numerics.qr_solve"), "us")
    rd = sum(1 for s in by_name.get("numerics.qr_solve", ()) if s.flag == FLAG_RANK_DEFICIENT)
    m["numerics.qr_solve.rank_deficient_per_op"] = (per_op(rd), "count")
    m["numerics.self_ms_per_op"] = (module_self_ms_per_op("numerics"), "ms")
    m["numerics.polynomial_roots.calls_per_op"] = (per_op(calls("numerics.polynomial_roots")), "count")

    m["approximant.poles_and_zeros.calls_per_op"] = (per_op(calls("approximant.poles_and_zeros")), "count")
    approx_ids = {s.id for s in by_name.get("experiments.approximate_series", ())}
    pz_inside = sum(1 for s in by_name.get("approximant.poles_and_zeros", ()) if s.parent in approx_ids)
    m["experiments.approximate_series.poles_and_zeros_per_call"] = (
        pz_inside / len(approx_ids) if approx_ids else 0.0,
        "count",
    )

    for name in ("baseline.dm_denominator", "baseline.svd_denominator", "baseline.numerator_from_denominator",
                 "pencil.combined_window", "pencil.pm1_poles", "pencil.residue_system", "pencil.pm1_residues",
                 "pencil.to_rational"):
        m[f"{name}.self_us_per_call"] = (self_us(name), "us")
    m["pencil.self_ms_per_op"] = (module_self_ms_per_op("pencil"), "ms")

    causes = pm2_pass_causes(spans)
    solves = len(causes)
    passes = sum(c["passes"] for c in causes)
    m["filtering.pm2.passes_per_solve"] = (passes / solves if solves else 0.0, "count")
    m["filtering.pm2.useful_pass_ratio"] = (sum(c["accepted"] for c in causes) / passes if passes else 0.0, "ratio")
    for cause in PASS_CAUSES:
        m[f"filtering.pm2.reductions.{cause}_per_solve"] = (
            sum(c[cause] for c in causes) / solves if solves else 0.0,
            "count",
        )
    m["filtering.pm2.self_us_per_call"] = (self_us("filtering.pm2"), "us")
    m["filtering.reduced_poles.self_us_per_call"] = (self_us("filtering.reduced_poles"), "us")

    sweeps = by_name.get("approximant.error_sweep", ())
    points = sum(s.size_a for s in sweeps)
    m["approximant.eval_rational.calls_per_op"] = (per_op(tracer.counts["approximant.eval_rational"]), "count")
    m["approximant.error_sweep.points_per_op"] = (per_op(points), "count")
    m["approximant.error_sweep.ns_per_point"] = (sum(s.t1 - s.t0 for s in sweeps) / points if points else 0.0, "ns")
    m["approximant.unit_disk_mesh.self_ms_per_call"] = (self_us("approximant.unit_disk_mesh") / 1e3, "ms")
    m["approximant.self_ms_per_op"] = (module_self_ms_per_op("approximant"), "ms")

    m["classify.classify_roots.self_us_per_call"] = (self_us("classify.classify_roots"), "us")
    m["experiments.self_ms_per_op"] = (module_self_ms_per_op("experiments"), "ms")
    for name in ("cli.build_parser", "cli.load_coefficients", "cli.main"):
        m[f"{name}.self_us_per_call"] = (self_us(name), "us")

    m["trace.ops_per_s"] = (ops / elapsed_s, "1/s")
    return m
