"""Command-line interface: solve | simulate | verify | sweep.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 numerical
divergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .dynamics import METHODS
from .errors import (
    DimensionMismatch,
    NegativeMu,
    MissingField,
    NonfiniteState,
    ParseError,
    ValidationError,
)
from .market import SocialPriceCap
from .scenario import (
    check_sim,
    load_config,
    report_to_json,
    run_simulate,
    run_solve,
    run_sweep,
    sweep_to_csv,
)
from .verification import run_verify

# An output path that cannot be written (OSError) is an input error too.
_INPUT_ERRORS = (
    ParseError, MissingField, ValidationError, NegativeMu, DimensionMismatch, OSError
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="energyshare",
        description=(
            "Competitive and price-capped equilibria of a quadratic energy-sharing "
            "market, plus simulation of the decentralized price dynamics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a scenario JSON file")
        p.add_argument("--lambda-max", type=float, default=None,
                       help="override the config's price cap")
        p.add_argument("--seed", type=int, default=None, help="override the config's seed")

    p_solve = sub.add_parser("solve", help="compute both equilibria and print a JSON report")
    add_common(p_solve)
    p_solve.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p_sim = sub.add_parser("simulate", help="integrate the closed loop and export CSV + summary")
    add_common(p_sim)
    p_sim.add_argument("--h", type=float, default=None, help="override the step size")
    p_sim.add_argument("--t-end", type=float, default=None, help="override the horizon")
    p_sim.add_argument("--method", choices=METHODS, default=None,
                       help="override the integration method")
    p_sim.add_argument("--out", default="trajectory.csv", help="trajectory CSV path")

    p_ver = sub.add_parser("verify", help="run the invariant battery on random instances")
    add_common(p_ver)
    p_ver.add_argument("--instances", type=int, default=200,
                       help="number of random instances (default 200)")

    p_sweep = sub.add_parser("sweep", help="tabulate the capped equilibrium across price caps")
    add_common(p_sweep)
    p_sweep.add_argument("--caps", required=True,
                         help="comma-separated list of price caps, e.g. 2,4,6,10")
    p_sweep.add_argument("--out", default=None, help="write the CSV table here instead of stdout")

    return parser


def _load(args):
    config = load_config(args.config)
    if args.lambda_max is not None:
        config = replace(config, cap=SocialPriceCap(lambda_max=args.lambda_max))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    sim = config.sim
    if getattr(args, "h", None) is not None:
        sim = replace(sim, h=args.h)
    if getattr(args, "t_end", None) is not None:
        sim = replace(sim, t_end=args.t_end)
    if getattr(args, "method", None) is not None:
        sim = replace(sim, method=args.method)
    return replace(config, sim=check_sim(sim, config.market.n))


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, newline="\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
        if args.command == "solve":
            _write_or_print(report_to_json(run_solve(config)), args.out)
            return 0
        if args.command == "simulate":
            csv_path = Path(args.out)
            summary_path = csv_path.with_suffix(".summary.json")
            _, report = run_simulate(config, csv_path, summary_path)
            status = "converged" if report.converged else "did not converge"
            print(
                f"wrote {csv_path} and {summary_path}; {status} "
                f"(final error {report.final_error:.3e} at tolerance {report.tolerance:g})"
            )
            return 0
        if args.command == "verify":
            report = run_verify(config, num_random_instances=args.instances)
            for line in report.summary_lines():
                print(line)
            return 0 if report.passed else 1
        if args.command == "sweep":
            try:
                caps = [float(v) for v in args.caps.split(",") if v.strip()]
            except ValueError:
                raise ParseError(f"--caps must be comma-separated numbers, got {args.caps!r}")
            if not caps:
                raise ParseError("--caps must contain at least one value")
            _write_or_print(sweep_to_csv(run_sweep(config, caps)), args.out)
            return 0
        raise AssertionError(f"unhandled command {args.command!r}")
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonfiniteState as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
