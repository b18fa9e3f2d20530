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
import re
import sys
from dataclasses import fields

import numpy as np

from .approximant import poles_and_zeros, sorted_roots
from .baseline import Conformation
from .errors import ApproximationError
from .experiments import (
    METHODS,
    ExperimentConfig,
    approximate_series,
    json_text,
    run_geometric_noise,
    run_log_branch,
    write_output,
)
from .numerics import all_finite, complex_pairs
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
    # A JSON array of finite [float, float] pairs is read in one call.  Else both formats become
    # (line number, [re, im]) entries, with no line number for JSON; a JSON entry that is neither
    # a number nor a list (true and false are no numbers here) is kept as is and rejected below.
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
        if data and all(type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is float for p in data):
            values = np.array(data, dtype=float).view(complex).reshape(-1)
            if all_finite(values):
                return values
        entries = [(None, [item, 0.0] if type(item) in (int, float) else item) for item in data]
    if not entries:
        raise ValueError(f"{path}: no coefficients found")
    values = []
    for lineno, pair in entries:
        expected = "a number, 're im' or [re, im]"
        # float reads the text fields; a JSON string or boolean is no number.
        if (isinstance(pair, list) and len(pair) == 2
                and (lineno is not None or not any(isinstance(x, (str, bool)) for x in pair))):
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
    numerator's roots are never computed.  JSON after
    ``method`` and ``conformation``, CSV without the report."""
    coeffs = load_coefficients(args.coeffs)
    s = PowerSeries(coeffs) if args.t is None else PowerSeries(coeffs, t=args.t)
    if args.n is not None:
        s = s.truncate(args.n)
    conf = Conformation(m=args.m, k=args.k)
    sol = approximate_series(s, conf, args.method)
    if args.command == "poles":
        payload = {"poles": complex_pairs(sorted_roots(sol.rational.denom))}
    else:
        poles, zeros = poles_and_zeros(sol.rational)
        payload = {
            "numer": complex_pairs(sol.rational.numer),
            "denom": complex_pairs(sol.rational.denom),
            "poles": complex_pairs(poles),
            "zeros": complex_pairs(zeros),
            "residues": complex_pairs(sol.prf.weights) if sol.prf is not None else [],
            "report": sol.report.to_dict() if sol.report is not None else None,
        }
    if args.format == "json":
        head = {"method": args.method, "conformation": {"m": conf.m, "k": conf.k, "final_l": sol.final_l}}
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


#: The options of approximate and poles, each dest its name without "--":
#: argparse reads this table, and so does parse_arguments on plain argv.
APPROXIMATION_OPTIONS = {
    "--coeffs": dict(type=str, required=True, help="coefficient file (JSON array or 're im' lines)"),
    "--method": dict(type=str, choices=METHODS, default="pm2"),
    "--m": dict(type=int, required=True, help="denominator degree"),
    "--k": dict(type=int, default=0, help="numerator degree offset (degree m+k)"),
    "--n": dict(type=int, default=None, help="use only the first n coefficients"),
    "--t": dict(type=float, default=None, help="filtering accuracy digits (pm2)"),
    "--out": dict(type=str, default=None, help="output file (default stdout)"),
    "--format": dict(type=str, choices=("json", "csv"), default="json"),
}
_DEFAULTS = {name[2:]: spec.get("default") for name, spec in APPROXIMATION_OPTIONS.items()}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    parsing does not change it, and help text is formatted when printed."""
    parser = _Parser(prog="padepencil", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    # The two subcommands that solve and write their view of the approximant.
    solvers = (("approximate", "full approximant from a coefficient file"), ("poles", "pole estimates only"))
    for command, summary in solvers:
        p = sub.add_parser(command, help=summary)
        for name, spec in APPROXIMATION_OPTIONS.items():
            p.add_argument(name, **spec)
        p.set_defaults(func=cli_approximate)
    p_exp = sub.add_parser("experiment", help="stock reproducibility studies")
    exp_sub = p_exp.add_subparsers(dest="experiment", parser_class=_Parser)

    # A flag left out stays None, and ExperimentConfig gives its default.
    p_geo = exp_sub.add_parser("geometric-noise", help="noise study on 1/(1-z)")
    p_geo.add_argument("--method", choices=METHODS)
    p_geo.add_argument("--m", type=int)
    p_geo.add_argument("--k", type=int)
    p_geo.add_argument("--n", type=int)
    p_geo.add_argument(
        "--eps", dest="eps_list", metavar="EPS", type=float, action="append", help="repeatable noise amplitude"
    )
    p_geo.add_argument("--samples", type=int)
    p_geo.add_argument("--seed", type=int)
    p_geo.add_argument("--t", type=float)
    p_geo.add_argument("--out", dest="output_path", metavar="OUT", help="base path for .samples.csv/.summary.json")
    p_geo.set_defaults(func=cli_experiment)

    p_log = exp_sub.add_parser("log-branch", help="branch-cut study on ln(1.2-z)")
    p_log.add_argument("--n", type=int, default=41)
    p_log.add_argument("--t", type=float)
    p_log.add_argument("--out", dest="output_path", metavar="OUT", help="base path for .json output")
    p_log.set_defaults(func=cli_experiment)

    return parser


def parse_arguments(argv: list) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: the same namespace, output and
    exit.  Plain argv (approximate or poles, then exact ``--option value``
    pairs that argparse reads alike, with --coeffs and --m) is read from
    ``APPROXIMATION_OPTIONS`` without the parser; any other argv goes to
    ``parse_args``."""
    if len(argv) % 2 and type(argv[0]) is str and argv[0] in ("approximate", "poles"):
        given = {}
        for option, text in zip(argv[1::2], argv[2::2]):
            spec = APPROXIMATION_OPTIONS.get(option) if type(option) is type(text) is str else None
            if spec is None or (text[:1] == "-" and not _NEGATIVE_NUMBER.match(text)):  # argparse's test
                break
            try:
                value = given[option[2:]] = spec["type"](text)
            except ValueError:
                break
            if "choices" in spec and value not in spec["choices"]:
                break
        else:
            if {"coeffs", "m"} <= given.keys():
                return argparse.Namespace(command=argv[0], **(_DEFAULTS | given), func=cli_approximate)
    return build_parser().parse_args(argv)


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
