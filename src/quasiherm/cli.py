"""Command-line front end.

Exit codes: 0 when every report row passes, 1 when any row fails,
2 on schema or parse errors, 3 on internal errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys

from .errors import (BadGrid, EvalError, ParityViolation, ParseError,
                     SchemaError)
from .models import (DEFAULT_TOL, FAMILY_TASKS, OPERATOR_TASKS, Report,
                     parse_model, run_battery, run_scenario)

# errors in the model, the option files or the options: exit code 2
_INPUT_ERRORS = (SchemaError, ParseError, EvalError, ParityViolation, BadGrid,
                 OSError)


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
                        help="fixed degeneracy floor in place of the "
                        "conditioning bound")


# task options by name (--t-max sets "t_max"); a flag left out is not
# passed, so the task's own default applies
_TASK_FLAGS = {
    "evolve": {"t_max": {"type": _finite_float}, "steps": {"type": int},
               "psi0": {"help": "basis index or path to a JSON [re, im] vector"}},
    "family-inverse": {"branch": {"type": int, "choices": (1, -1)}},
    "family-check": {"refine": {
        "type": int, "help": "number of h -> h/2 refinement levels"}},
}


def _add_task(group, name: str, task: str) -> None:
    p = group.add_parser(name)
    p.set_defaults(task=task)
    _add_common(p)
    for key, kwargs in _TASK_FLAGS.get(task, {}).items():
        p.add_argument("--" + key.replace("_", "-"),
                       default=argparse.SUPPRESS, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiherm",
        description="metric construction, factorization, and charge-family "
                    "checks for non-Hermitian operators with real spectra")
    sub = parser.add_subparsers(dest="command", required=True)
    for task in OPERATOR_TASKS + ("report",):
        _add_task(sub, task, task)
    fam = sub.add_parser("family").add_subparsers(dest="family_command",
                                                  required=True)
    for task in FAMILY_TASKS:
        _add_task(fam, task.removeprefix("family-"), task)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process; parse_args leaves it unchanged."""
    return build_parser()


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"model file is not UTF-8: {exc}") from exc
    return parse_model(text)


def _psi0_option(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    with open(raw, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or undecodable bytes
            raise SchemaError(f"invalid JSON: {exc}", "psi0") from exc


def _emit(report: Report, out: str | None, fmt: str) -> None:
    # in place, then cut to length: truncating to zero first costs more
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with (contextlib.nullcontext(sys.stdout) if out is None else
          open(os.open(out, flags, 0o666), "w", encoding="utf-8",
               newline="")) as fh:
        try:
            if fmt == "json":
                fh.write(report.to_json())
            else:
                report.write_csv(fh)
        finally:  # only a regular file is cut, never a device or a pipe
            if out is not None and stat.S_ISREG(
                    os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        spec = _load_model(args.model)
        options = {"gap_floor": args.gap_floor}
        for key in _TASK_FLAGS.get(args.task, {}):
            if key in args:  # given on the command line
                options[key] = getattr(args, key)
        if "psi0" in options:
            options["psi0"] = _psi0_option(options["psi0"])

        if args.task == "report":
            report = run_battery(spec, options, tol=args.tol)
        else:
            report = run_scenario(spec, args.task, options, tol=args.tol)
        _emit(report, args.out, args.format)
        return 0 if report.all_passed else 1
    except _INPUT_ERRORS as exc:
        print(f"quasiherm: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"quasiherm: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
