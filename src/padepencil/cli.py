"""Command-line front end.

Subcommands::

    padepencil approximate --coeffs FILE --method pm2 --m 10 --k -1
    padepencil poles       --coeffs FILE --method pm1 --m 10 --k -1
    padepencil experiment geometric-noise [--eps 1e-3 --eps 1e-6 ...]
    padepencil experiment log-branch [--n 41 --t 14]

Exit codes: 0 on success, 2 when the approximation itself fails
(degenerate or singular systems, collapse), 3 on usage or input errors,
among them a coefficient that is not finite (NaN, inf, or a number such
as 1e400 that overflows a double).
A closed stdout (its reader, such as head, has gone) is not an error:
the rest of the output is dropped and the exit code is 0, with nothing
on stderr.
Coefficient files are JSON arrays (numbers or [re, im] pairs) or plain
text with one "re [im]" pair per line.
Output files (--out) are overwritten in place and cut to the written
length: a symlink is written through, and the write is no more atomic
than a plain overwrite.  poles computes only the poles, so it does not
fail on numerator roots that it would never print.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .approximant import sorted_roots
from .baseline import Conformation
from .errors import ApproximationError
from .experiments import (
    METHODS,
    ExperimentConfig,
    approximate_series,
    json_text,
    run_geometric_noise,
    run_log_branch,
    solve,
    write_output,
)
from .numerics import complex_pairs
from .series import PowerSeries


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2
    for approximation failures and use 3 for usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(3)


def load_coefficients(path: str) -> np.ndarray:
    """Read series coefficients from a JSON or whitespace text file."""
    with open(path) as fh:
        text = fh.read()
    # Both formats become (line number, [re, im]) entries, with no line
    # number for JSON; a JSON entry that is neither a number nor a list
    # is kept as is and rejected below.
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        entries = []
        for lineno, line in enumerate(text.splitlines(), 1):
            parts = line.split("#", 1)[0].split()
            if parts:
                entries.append((lineno, parts + [0.0] if len(parts) == 1 else parts))
    else:
        if not isinstance(data, list):
            raise ValueError(f"{path}: JSON coefficient file must be an array")
        entries = [(None, [item, 0.0] if isinstance(item, (int, float)) else item) for item in data]
    if not entries:
        raise ValueError(f"{path}: no coefficients found")
    values = []
    for lineno, pair in entries:
        expected = "a number, 're im' or [re, im]"
        # float reads the text fields; a JSON string is no number, whatever it spells.
        if (isinstance(pair, list) and len(pair) == 2
                and (lineno is not None or not any(isinstance(x, str) for x in pair))):
            try:
                value = complex(float(pair[0]), float(pair[1]))
            except (TypeError, ValueError, OverflowError):
                pass  # null or a list inside, a text field that is no number, an integer beyond float
            else:
                if cmath.isfinite(value):
                    values.append(value)
                    continue
                expected = "finite values"
        where = path if lineno is None else f"{path}:{lineno}"
        raise ValueError(f"{where}: expected {expected}, got {pair!r}")
    return np.array(values, dtype=complex)


def cli_approximate(args) -> int:
    """Solve, then write what the subcommand prints: every key for
    ``approximate``; for ``poles`` the denominator's roots alone, so the
    numerator's roots and the report are never computed.  JSON after
    ``method`` and ``conformation``, CSV without the report."""
    coeffs = load_coefficients(args.coeffs)
    s = PowerSeries(coeffs) if args.t is None else PowerSeries(coeffs, t=args.t)
    if args.n is not None:
        s = s.truncate(args.n)
    conf = Conformation(m=args.m, k=args.k)
    if args.command == "poles":
        res = solve(s, conf, args.method)
        payload = {"poles": complex_pairs(sorted_roots(res.rational.denom))}
    else:
        res = approximate_series(s, conf, args.method)
        payload = {
            "numer": complex_pairs(res.rational.numer),
            "denom": complex_pairs(res.rational.denom),
            "poles": complex_pairs(res.poles),
            "zeros": complex_pairs(res.zeros),
            "residues": complex_pairs(res.prf.weights) if res.prf is not None else [],
            "report": res.report.to_dict() if res.report is not None else None,
        }
    if args.format == "json":
        head = {"method": args.method, "conformation": {"m": conf.m, "k": conf.k, "final_l": res.final_l}}
        text = json_text(head | payload) + "\n"
    else:
        lines = ["kind,index,re,im"]
        for kind, pairs in payload.items():
            if kind != "report":
                lines.extend(f"{kind},{i},{re!r},{im!r}" for i, (re, im) in enumerate(pairs))
        text = "\n".join(lines) + "\n"
    if args.out:
        write_output(args.out, text)
    else:
        print(text, end="")
    return 0


def cli_experiment(args) -> int:
    """Run a stock experiment on the config fields named by its flags and
    print the subcommand's view of the result.  The runner is looked up
    here, not stored in the shared parser, so a rebinding of
    ``run_geometric_noise`` or ``run_log_branch`` in this module is seen."""
    given = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig(**{key: value for key, value in given.items() if value is not None})
    if args.experiment == "geometric-noise":
        result = run_geometric_noise(cfg)
        view = {"config": result["config"], "summary": result["summary"]}
    else:
        view = run_log_branch(cfg)
    print(json_text(view))
    return 0


def _add_approximation_parser(sub, command: str, summary: str) -> argparse.ArgumentParser:
    """A subcommand that solves and writes its view of the approximant."""
    p = sub.add_parser(command, help=summary)
    p.add_argument("--coeffs", required=True, help="coefficient file (JSON array or 're im' lines)")
    p.add_argument("--method", choices=METHODS, default="pm2")
    p.add_argument("--m", type=int, required=True, help="denominator degree")
    p.add_argument("--k", type=int, default=0, help="numerator degree offset (degree m+k)")
    p.add_argument("--n", type=int, default=None, help="use only the first n coefficients")
    p.add_argument("--t", type=float, default=None, help="filtering accuracy digits (pm2)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cli_approximate)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    parsing does not change it, and help text is formatted when printed.
    Its ``commands`` maps each subcommand name to that subcommand's parser."""
    parser = _Parser(prog="padepencil", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    parser.commands = {
        "approximate": _add_approximation_parser(sub, "approximate", "full approximant from a coefficient file"),
        "poles": _add_approximation_parser(sub, "poles", "pole estimates only"),
        "experiment": sub.add_parser("experiment", help="stock reproducibility studies"),
    }
    exp_sub = parser.commands["experiment"].add_subparsers(dest="experiment", parser_class=_Parser)

    defaults = ExperimentConfig()
    p_geo = exp_sub.add_parser("geometric-noise", help="noise study on 1/(1-z)")
    p_geo.add_argument("--method", choices=METHODS, default=defaults.method)
    p_geo.add_argument("--m", type=int, default=defaults.m)
    p_geo.add_argument("--k", type=int, default=defaults.k)
    p_geo.add_argument("--n", type=int, default=defaults.n)
    p_geo.add_argument(
        "--eps", dest="eps_list", metavar="EPS", type=float, action="append", help="repeatable noise amplitude"
    )
    p_geo.add_argument("--samples", type=int, default=defaults.samples)
    p_geo.add_argument("--seed", type=int, default=defaults.seed)
    p_geo.add_argument("--t", type=float, default=defaults.t)
    p_geo.add_argument("--out", dest="output_path", metavar="OUT", help="base path for .samples.csv/.summary.json")
    p_geo.set_defaults(func=cli_experiment)

    p_log = exp_sub.add_parser("log-branch", help="branch-cut study on ln(1.2-z)")
    p_log.add_argument("--n", type=int, default=41)
    p_log.add_argument("--t", type=float, default=defaults.t)
    p_log.add_argument("--out", dest="output_path", metavar="OUT", help="base path for .json output")
    p_log.set_defaults(func=cli_experiment)

    return parser


def parse_arguments(argv: list) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: the same namespace, output and
    exit.  When argv[0] names a subcommand, that subcommand's parser reads
    the rest and the top-level parse is skipped; leftover arguments are
    reported through the top-level parser, as parse_args reports them."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one command on argv (default sys.argv[1:]) and return its exit
    code.  It may be called repeatedly in one process, and it never closes
    or redirects the caller's streams: on a closed stdout it returns 0."""
    args = parse_arguments(sys.argv[1:] if argv is None else list(argv))
    func = getattr(args, "func", None)
    if func is None:
        build_parser().print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 3
    try:
        return func(args)
    except ApproximationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader of stdout has gone
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def command_line():
    """The ``padepencil`` command: exit with the code of ``main``.

    Output still buffered is flushed here.  When its reader has gone,
    stdout's descriptor is pointed at os.devnull: the interpreter
    flushes stdout again at exit, and a failed flush there would print
    "Exception ignored" and exit with code 120.
    """
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    command_line()
