"""Command-line front end.

Subcommands::

    padepencil approximate --coeffs FILE --method pm2 --m 10 --k -1
    padepencil poles       --coeffs FILE --method pm1 --m 10 --k -1
    padepencil experiment geometric-noise [--eps 1e-3 --eps 1e-6 ...]
    padepencil experiment log-branch [--n 41 --t 14]

Exit codes: 0 on success, 2 when the approximation itself fails
(degenerate or singular systems, collapse), 3 on usage or input errors.
Coefficient files are JSON arrays (numbers or [re, im] pairs) or plain
text with one "re [im]" pair per line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .baseline import Conformation
from .errors import ApproximationError
from .experiments import METHODS, ExperimentConfig, approximate_series, run_geometric_noise, run_log_branch
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
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        values = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) == 1:
                values.append(complex(float(parts[0]), 0.0))
            elif len(parts) == 2:
                values.append(complex(float(parts[0]), float(parts[1])))
            else:
                raise ValueError(f"{path}:{lineno}: expected 're' or 're im', got {line!r}")
        if not values:
            raise ValueError(f"{path}: no coefficients found")
        return np.array(values, dtype=complex)
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: JSON coefficient file must be a non-empty array")
    values = []
    for item in data:
        if isinstance(item, (int, float)):
            values.append(complex(item, 0.0))
        elif isinstance(item, list) and len(item) == 2:
            values.append(complex(float(item[0]), float(item[1])))
        else:
            raise ValueError(f"{path}: entries must be numbers or [re, im] pairs, got {item!r}")
    return np.array(values, dtype=complex)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _approximation_payload(args) -> dict:
    coeffs = load_coefficients(args.coeffs)
    s = PowerSeries(coeffs)
    if args.n is not None:
        s = s.truncate(args.n)
    conf = Conformation(m=args.m, k=args.k)
    res = approximate_series(s, conf, args.method, t=args.t, origin_radius=args.origin_radius)
    return {
        "method": args.method,
        "conformation": {"m": conf.m, "k": conf.k, "final_l": res.final_l},
        "numer": complex_pairs(res.rational.numer),
        "denom": complex_pairs(res.rational.denom),
        "poles": complex_pairs(res.poles),
        "zeros": complex_pairs(res.zeros),
        "residues": complex_pairs(res.prf.weights) if res.prf is not None else [],
        "report": res.report.to_dict() if res.report is not None else None,
    }


def _payload_csv(payload: dict, kinds) -> str:
    lines = ["kind,index,re,im"]
    for kind in kinds:
        for i, (re, im) in enumerate(payload[kind]):
            lines.append(f"{kind},{i},{re!r},{im!r}")
    return "\n".join(lines) + "\n"


def cli_approximate(args) -> int:
    payload = _approximation_payload(args)
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_payload_csv(payload, ["numer", "denom", "poles", "zeros", "residues"]), args.out)
    return 0


def cli_poles(args) -> int:
    payload = _approximation_payload(args)
    payload = {
        "method": payload["method"],
        "conformation": payload["conformation"],
        "poles": payload["poles"],
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_payload_csv(payload, ["poles"]), args.out)
    return 0


def cli_geometric(args) -> int:
    cfg = ExperimentConfig(
        n=args.n,
        m=args.m,
        k=args.k,
        eps_list=tuple(args.eps) if args.eps else ExperimentConfig.eps_list,
        samples=args.samples,
        seed=args.seed,
        t=args.t,
        method=args.method,
        origin_radius=args.origin_radius,
        output_path=args.out,
    )
    result = run_geometric_noise(cfg)
    print(json.dumps({"config": result["config"], "summary": result["summary"]}, indent=2))
    return 0


def cli_log_branch(args) -> int:
    cfg = ExperimentConfig(
        n=args.n,
        t=args.t,
        origin_radius=args.origin_radius,
        output_path=args.out,
    )
    result = run_log_branch(cfg)
    print(json.dumps(result, indent=2))
    return 0


def _add_common_approx_flags(p) -> None:
    p.add_argument("--coeffs", required=True, help="coefficient file (JSON array or 're im' lines)")
    p.add_argument("--method", choices=METHODS, default="pm2")
    p.add_argument("--m", type=int, required=True, help="denominator degree")
    p.add_argument("--k", type=int, default=0, help="numerator degree offset (degree m+k)")
    p.add_argument("--n", type=int, default=None, help="use only the first n coefficients")
    p.add_argument("--t", type=float, default=None, help="filtering accuracy digits (pm2)")
    p.add_argument("--origin-radius", type=float, default=1e-3)
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="padepencil", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_approx = sub.add_parser("approximate", help="full approximant from a coefficient file")
    _add_common_approx_flags(p_approx)
    p_approx.set_defaults(func=cli_approximate)

    p_poles = sub.add_parser("poles", help="pole estimates only")
    _add_common_approx_flags(p_poles)
    p_poles.set_defaults(func=cli_poles)

    p_exp = sub.add_parser("experiment", help="stock reproducibility studies")
    exp_sub = p_exp.add_subparsers(dest="experiment", parser_class=_Parser)

    defaults = ExperimentConfig()
    p_geo = exp_sub.add_parser("geometric-noise", help="noise study on 1/(1-z)")
    p_geo.add_argument("--method", choices=METHODS, default=defaults.method)
    p_geo.add_argument("--m", type=int, default=defaults.m)
    p_geo.add_argument("--k", type=int, default=defaults.k)
    p_geo.add_argument("--n", type=int, default=defaults.n)
    p_geo.add_argument("--eps", type=float, action="append", default=None, help="repeatable noise amplitude")
    p_geo.add_argument("--samples", type=int, default=defaults.samples)
    p_geo.add_argument("--seed", type=int, default=defaults.seed)
    p_geo.add_argument("--t", type=float, default=defaults.t)
    p_geo.add_argument("--origin-radius", type=float, default=defaults.origin_radius)
    p_geo.add_argument("--out", default=None, help="base path for .samples.csv/.summary.json")
    p_geo.set_defaults(func=cli_geometric)

    p_log = exp_sub.add_parser("log-branch", help="branch-cut study on ln(1.2-z)")
    p_log.add_argument("--n", type=int, default=41)
    p_log.add_argument("--t", type=float, default=defaults.t)
    p_log.add_argument("--origin-radius", type=float, default=defaults.origin_radius)
    p_log.add_argument("--out", default=None, help="base path for .json output")
    p_log.set_defaults(func=cli_log_branch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func = getattr(args, "func", None)
    if func is None:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return 3
    try:
        return func(args)
    except ApproximationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
