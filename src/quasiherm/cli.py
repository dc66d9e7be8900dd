"""Command-line front end.

Exit codes: 0 when every report row passes, 1 when any row fails,
2 on schema or parse errors, 3 on internal errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import (BadGrid, EvalError, ParityViolation, ParseError,
                     SchemaError)
from .models import DEFAULT_TOL, Report, parse_model, run_battery, run_scenario

_MODEL_STAGE_ERRORS = (SchemaError, ParseError, EvalError, ParityViolation,
                       BadGrid)


def _finite_float(text: str, minimum: float = -math.inf) -> float:
    """argparse type: a finite float no smaller than ``minimum``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= minimum):
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise argparse.ArgumentTypeError(
            f"expected a finite number{bound}, got {text!r}")
    return value


_nonnegative_float = functools.partial(_finite_float, minimum=0.0)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True, help="path to a model file")
    parser.add_argument("--tol", type=_nonnegative_float, default=DEFAULT_TOL,
                        help="relative tolerance for pass/fail rows")
    parser.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--gap-floor", type=_nonnegative_float, default=None,
                        help="degeneracy floor override for eigensolves")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiherm",
        description="metric construction, factorization, and charge-family "
                    "checks for non-Hermitian operators with real spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("spectrum", "metric", "factorize", "table", "report"):
        p = sub.add_parser(name)
        _add_common(p)

    p = sub.add_parser("evolve")
    _add_common(p)
    p.add_argument("--t-max", type=_finite_float, default=20.0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--psi0", default="0",
                   help="basis index or path to a JSON [re, im] vector")

    p = sub.add_parser("family")
    fam = p.add_subparsers(dest="family_command", required=True)
    for name in ("forward", "inverse", "check"):
        fp = fam.add_parser(name)
        _add_common(fp)
        if name == "inverse":
            fp.add_argument("--branch", type=int, choices=(1, -1), default=1)
        if name == "check":
            fp.add_argument("--refine", type=int, default=0,
                            help="number of h -> h/2 refinement levels")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process; parse_args leaves it unchanged."""
    return build_parser()


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def _psi0_option(raw: str):
    try:
        return int(raw)
    except ValueError:
        with open(raw, "r", encoding="utf-8") as fh:
            return json.load(fh)


def _emit(report: Report, out: str | None, fmt: str) -> None:
    text = report.to_json() if fmt == "json" else report.to_csv()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        spec = _load_model(args.model)
        options = {"gap_floor": args.gap_floor}
        if args.command == "evolve":
            options.update(t_max=args.t_max, steps=args.steps,
                           psi0=_psi0_option(args.psi0))
            task = "evolve"
        elif args.command == "family":
            task = f"family-{args.family_command}"
            if args.family_command == "inverse":
                options["branch"] = args.branch
            elif args.family_command == "check":
                options["refine"] = args.refine
        else:
            task = args.command

        if task == "report":
            report = run_battery(spec, options, tol=args.tol)
        else:
            report = run_scenario(spec, task, options, tol=args.tol)
        _emit(report, args.out, args.format)
        return 0 if report.all_passed else 1
    except _MODEL_STAGE_ERRORS as exc:
        print(f"quasiherm: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"quasiherm: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"quasiherm: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
