"""Write padepencil's stock outputs to a directory, for bitwise comparison.

Usage (from the repository root)::

    python3 tools/stock_outputs.py OUTDIR

Writes into OUTDIR:

* ``geo-<method>-<seed>-<config>.samples.csv`` and ``.summary.json``:
  ``run_geometric_noise`` for the four methods, seeds 1, 101 and 7, at
  the default config and at [9/8] with eps 1e-2, 1e-4, 1e-8, 1e-12
  (48 files);
* ``log-<n>.json``: ``run_log_branch`` at n = 3, 4, 11, 21, 41, 61
  (6 files); at n = 3 and 4 no pole of the unfiltered pencil lies on
  the ray, so the assimilation entry records a Collapse;
* ``cli/``: the three coefficient files (JSON pairs, JSON numbers,
  text), and ``approximate`` and ``poles`` for every method, input and
  output format, each with its exit code and stderr in a ``.status``
  file;
* ``cli/tiny.json``, ``cli/approximate-dm-tiny.json.status`` and
  ``cli/poles-dm-tiny.json``: dm ``approximate`` and ``poles`` calls on
  three coefficients of 1e-300, whose numerator roots overflow, so the
  error path of ``approximate`` is compared too, and ``poles``, which
  never computes those roots, prints its one pole;
* ``cli/usage-no-command.status``, ``cli/usage-approximate-m-x.status``
  and ``cli/poles-missing-file.status``: the exit-3 paths (no
  subcommand, ``--m x`` and a missing coefficient file), run between
  successful calls, so a parser reused after a usage error is compared
  too;
* ``cli/usage-approximate-bogus.status``,
  ``cli/usage-misspelt-command.status``,
  ``cli/usage-experiment-no-name.status`` and
  ``cli/usage-experiment-log-branch-bogus.status``: an unrecognized
  option after a subcommand, a misspelt command, ``experiment`` with no
  experiment named and an unrecognized option after a nested
  subcommand;
* ``cli/nonfinite.json``, ``cli/approximate-nonfinite.json.status`` and
  ``cli/poles-nonfinite.json.status``: both commands on a coefficient
  file that holds 1e400, which reads as infinity;
* ``cli/log-201.json``, ``cli/poles4-240.json`` and
  ``cli/approximate-<method>-<input>.json`` for pm2 and svd:
  ln(1.2-z) at [100/100] and a seeded noisy sum of 4 poles at [119/120],
  whose filtering reports list every pass's singular values, so the
  large first windows (q = 101 and 121, where the LAPACK workspace sets
  the last bits of Vh) are compared too;
* ``cli/zeros.json``, ``cli/unit.json`` and
  ``cli/approximate-pm2-<input>-<p>-<q>.json``: pm2 ``approximate`` on
  seven zeros at [2/3] and [3/2], and on 1, 0, 0, 0, 0, 0, 0 at [3/2],
  where filtering removes every pole, so the head-only exits are
  compared too;
* ``cli/experiment-*``: the printed views and files of the two
  ``experiment`` subcommands, and ``cli/help-*``: every ``--help`` text.

Every path the package records in an output is relative to OUTDIR, so
the files do not depend on where OUTDIR is.  Before each CLI ``--out``
and experiment ``output_path`` write, the target holds a placeholder
longer than any stock output, so a writer that fails to cut a file to
its new length leaves a tail that shows.  Two checkouts that compute
the same bits give no difference under ``diff -r`` of their OUTDIRs.
BLAS runs on one thread, as in the benchmark.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import json
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from padepencil import (  # noqa: E402
    ExperimentConfig,
    gen_from_poles,
    gen_log_series,
    run_geometric_noise,
    run_log_branch,
)
from padepencil.cli import main  # noqa: E402
from padepencil.experiments import METHODS  # noqa: E402

SEEDS = (1, 101, 7)
GEO_CONFIGS = {
    "default": {},
    "9-8": {"m": 8, "k": 1, "eps_list": (1e-2, 1e-4, 1e-8, 1e-12)},
}
LOG_NS = (3, 4, 11, 21, 41, 61)
#: Coefficient file name -> label used in the output names.
INPUTS = {"pairs.json": "pairs", "numbers.json": "numbers", "lines.txt": "text"}
#: What each output path holds before it is written: more bytes than any
#: stock output.
PLACEHOLDER = b"#" * (1 << 16)


def hold(*paths) -> None:
    """Put the placeholder at each path."""
    for path in paths:
        Path(path).write_bytes(PLACEHOLDER)


def write_experiments() -> None:
    for method in METHODS:
        for seed in SEEDS:
            for name, fields in GEO_CONFIGS.items():
                base = f"geo-{method}-{seed}-{name}"
                hold(f"{base}.samples.csv", f"{base}.summary.json")
                run_geometric_noise(ExperimentConfig(method=method, seed=seed, output_path=base, **fields))
    for n in LOG_NS:
        hold(f"log-{n}.json")
        run_log_branch(ExperimentConfig(n=n, output_path=f"log-{n}"))


def write_inputs() -> None:
    """The three INPUTS: a complex noisy 3-pole series as JSON pairs and
    as text, and a real noisy geometric series as JSON numbers; the
    overflowing ``tiny.json``; ``nonfinite.json``; the two large-m
    series; and the head-only ``zeros.json`` and ``unit.json``."""
    rng = np.random.default_rng(2022)
    poles = [1.5, -2.0 + 0.5j, 0.8 + 1.1j]
    exact = gen_from_poles(poles, [1.0, 0.5 - 0.25j, 2.0], 12).coeffs
    noisy = exact * (1 + 1e-9 * rng.uniform(-1, 1, exact.size))
    real = 1.0 + 1e-6 * rng.uniform(-1, 1, 12)
    Path("cli/pairs.json").write_text(json.dumps([[c.real, c.imag] for c in noisy]))
    Path("cli/numbers.json").write_text(json.dumps(real.tolist()))
    lines = ["# re im, one coefficient per line"] + [f"{c.real!r} {c.imag!r}" for c in noisy.tolist()]
    Path("cli/lines.txt").write_text("\n".join(lines) + "\n")
    Path("cli/tiny.json").write_text(json.dumps([1e-300] * 3))
    Path("cli/nonfinite.json").write_text("[[1, 0], [1e400, 0], [1, 0]]")
    Path("cli/zeros.json").write_text(json.dumps([0.0] * 7))
    Path("cli/unit.json").write_text(json.dumps([1.0] + [0.0] * 6))
    Path("cli/log-201.json").write_text(json.dumps([[c.real, c.imag] for c in gen_log_series(201).coeffs.tolist()]))
    poles4 = gen_from_poles([1.3, -1.5 + 0.4j, 0.2 + 1.6j, -0.9 - 1.2j], [1.0, 0.5j, -0.7, 0.3 + 0.3j], 240).coeffs
    poles4 = poles4 * (1 + 1e-8 * rng.uniform(-1, 1, poles4.size))
    Path("cli/poles4-240.json").write_text(json.dumps([[c.real, c.imag] for c in poles4.tolist()]))


def run_cli(argv, name: str) -> None:
    """Run one CLI call; its stdout, if any, goes to ``name`` and its
    exit code and stderr to ``name.status``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # --help and usage errors
            rc = exc.code
    if out.getvalue():
        Path(name).write_text(out.getvalue())
    Path(f"{name}.status").write_text(f"exit {rc}\n{err.getvalue()}")


def cli_calls():
    """Every CLI call the tool makes, in order: its argv, the name its
    outputs are written under, and the paths that hold the placeholder
    before it runs."""
    for src, label in INPUTS.items():
        for method in METHODS:
            for command in ("approximate", "poles"):
                for fmt in ("json", "csv"):
                    out = f"cli/{command}-{method}-{label}.{fmt}"
                    argv = [command, "--coeffs", f"cli/{src}", "--method", method, "--m", "3", "--k", "-1",
                            "--t", "8", "--format", fmt, "--out", out]
                    yield argv, out, (out,)
    yield [], "cli/usage-no-command", ()
    yield ["approximate", "--coeffs", "cli/pairs.json", "--m", "x"], "cli/usage-approximate-m-x", ()
    yield ["poles", "--coeffs", "cli/missing.json", "--m", "3"], "cli/poles-missing-file", ()
    yield ["approximate", "--coeffs", "cli/pairs.json", "--m", "3", "--bogus", "1"], "cli/usage-approximate-bogus", ()
    yield ["aproximate", "--m", "3"], "cli/usage-misspelt-command", ()
    yield ["experiment"], "cli/usage-experiment-no-name", ()
    yield ["experiment", "log-branch", "--n", "21", "--bogus"], "cli/usage-experiment-log-branch-bogus", ()
    for command in ("approximate", "poles"):
        yield [command, "--coeffs", "cli/nonfinite.json", "--m", "1"], f"cli/{command}-nonfinite.json", ()
    for command in ("approximate", "poles"):
        yield ([command, "--coeffs", "cli/tiny.json", "--method", "dm", "--m", "1", "--k", "0"],
               f"cli/{command}-dm-tiny.json", ())
    for method in ("pm2", "svd"):
        yield (["approximate", "--coeffs", "cli/log-201.json", "--method", method, "--m", "100", "--k", "0"],
               f"cli/approximate-{method}-log-201.json", ())
        yield (["approximate", "--coeffs", "cli/poles4-240.json", "--method", method, "--m", "120", "--k", "-1",
                "--t", "8"], f"cli/approximate-{method}-poles4-240.json", ())
    for label, p, q in (("zeros", 2, 3), ("zeros", 3, 2), ("unit", 3, 2)):
        yield (["approximate", "--coeffs", f"cli/{label}.json", "--method", "pm2", "--m", str(q), "--k", str(p - q)],
               f"cli/approximate-pm2-{label}-{p}-{q}.json", ())
    yield (["experiment", "geometric-noise", "--eps", "1e-4", "--eps", "1e-9", "--samples", "2",
            "--out", "cli/experiment-geo"], "cli/experiment-geo.printed.json",
           ("cli/experiment-geo.samples.csv", "cli/experiment-geo.summary.json"))
    yield (["experiment", "log-branch", "--n", "21", "--out", "cli/experiment-log"], "cli/experiment-log.printed.json",
           ("cli/experiment-log.json",))
    for command in ([], ["approximate"], ["poles"], ["experiment"], ["experiment", "geometric-noise"],
                    ["experiment", "log-branch"]):
        yield [*command, "--help"], f"cli/help-{'-'.join(['padepencil', *command])}.txt", ()


def write_cli() -> None:
    Path("cli").mkdir()
    write_inputs()
    for argv, name, held in cli_calls():
        hold(*held)
        run_cli(argv, name)


def write_all(outdir: str) -> None:
    os.environ["COLUMNS"] = "100"  # argparse wraps help text to the terminal width
    os.makedirs(outdir)
    os.chdir(outdir)
    write_experiments()
    write_cli()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_all(sys.argv[1])
