"""Print a digest of every CLI output over a fixed corpus of models.

Usage: python tools/report_digests.py [--workload-seeds 1 2]
           [--verdicts | --values] > digests.txt
       python tools/report_digests.py --compare values-a.txt values-b.txt

For each (model, invocation, format) one line is printed:

    <exit code> <sha256 of stdout + stderr + warnings> <model> <argv...>

With ``--verdicts`` only the JSON calls run, and each line holds the
verdicts of its call in place of the digest: its exit code and, for each
report row, the row's name and pass flag.

    <exit code> <model> <argv...> <row name>=<true|false|null> ...

The rows' values are left out, so the verdict lines do not depend on the
last digits that the BLAS thread count moves; the errors of a model that
fails are rows named by their error code.

With ``--values`` only the JSON calls run too, and each report row gets a
line of its own, a JSON list:

    [<model>, <argv...>, <row name>, <value>, <tol>, <pass>]

``--compare A B`` reads two such outputs and prints the largest
|value_A - value_B| / tol over the rows with a tol (over every entry of a
list value), once over all of them and once over the rows that pass on at
least one side, so that a row failing by far at both does not hide the
rest, and names each row that only one output has, with its count in
each; it always exits 0.

Every call runs ``quasiherm.cli.main`` in process on a model file in a
temporary directory.  Warnings raised during a call are hashed by category
and message (not by source line), so the digests change only when what a
user sees changes.  Compare two trees by running the script in each and
diffing the outputs; the digests are byte-deterministic per environment
(numpy, BLAS, BLAS thread count), and BLAS is pinned to one thread here.

The corpus:
  - the JSON models of the README;
  - a broken-phase Schroedinger model whose evolution overflows;
  - a lattice with the identity pseudometric and a matrix model with an
    explicit dense pseudometric;
  - a family whose S and Lambda are finite but whose check residuals
    overflow;
  - operator models with finite entries whose H, or whose explicit P,
    has a squared Frobenius norm that overflows (a schema error);
  - a one-state matrix model, whose spectrum has no gap;
  - the README 2x2 model with an explicit P of scale 1e11, whose
    pairings c_n are of order 1e-11;
  - the README 2x2 model with an explicit P of scale 9e153, which passes
    the intake check but whose triple's Theta has a squared Frobenius
    norm that overflows;
  - a matrix model of real entries with an explicit indefinite P, whose
    H stays real;
  - the broken-phase Schroedinger model with the flip as an explicit
    dense P, so that its complex H is solved through the rotated real
    form and its left vectors are J conj(W), mapped by S;
  - a Jordan block that passes the intake check but whose degeneracy
    floor overflows;
  - a Schroedinger model whose potential 1/x cannot be evaluated at the
    grid point x = 0 (exit 2);
  - a Hermitian matrix model that mixes plain numbers with [re, im]
    pairs and does not commute with the flip, so that its entries are
    parsed one by one and it is solved whole;
  - every model of the benchmark workloads (bench/workloads.py, read only)
    at the requested seeds.

Every model gets every task in both formats, plus ``evolve --steps 7
--t-max 3``, ``family inverse --branch -1`` and ``family check --refine
2``.  Exits 1 if any call exits 3 (internal error), prints a non-finite
value (a "nan", "inf" or "-inf" JSON row value or CSV field, the rule of
bench/worker.py) or raises a warning; else 0.  The counts of each go to
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

# BLAS reads these once, when numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np
from quasiherm.cli import main
from worker import _is_nonfinite, _scan_json
from workloads import WORKLOADS, build_plan

TASKS = (["spectrum"], ["metric"], ["factorize"], ["table"], ["evolve"],
         ["report"], ["family", "forward"], ["family", "inverse"],
         ["family", "check"], ["evolve", "--steps", "7", "--t-max", "3"],
         ["family", "inverse", "--branch", "-1"],
         ["family", "check", "--refine", "2"])
FORMATS = ("json", "csv")

BROKEN_EVOLVE = {"kind": "schroedinger", "grid": {"L": 8, "N": 201},
                 "V_real": "0", "V_imag": "0.1*x^3"}
IDENTITY_P = {"kind": "lattice", "n": 4, "gamma": 0.0,
              "pseudometric": "identity"}
# |alpha| below 1e105: S and Lambda are finite, the order-0 coefficient
# residual and the composed products of family check are not
OVERFLOW_CHECK = {"kind": "family", "grid": {"L": 4, "N": 201},
                  "sigma": "1+0.5*exp(-x^2)", "alpha": "1e105*x*exp(-x^2)",
                  "omega": 0.7}
# finite entries, each model's H with a squared Frobenius norm above the
# largest double
OVERFLOW_NORM = {
    "overflow-gamma": {"kind": "lattice", "n": 4, "gamma": 1e308},
    "overflow-coupling": {"kind": "lattice", "n": 4, "coupling": 1e308},
    "overflow-pt": {"kind": "matrix",
                    "data": [[[1e308, 1e308], [1e308, 0]],
                             [[1e308, 0], [1e308, -1e308]]]},
    "overflow-real": {"kind": "matrix", "data": [[1e308, 2e307], [0, -1e308]]},
    "overflow-potential": {"kind": "schroedinger", "grid": {"L": 1, "N": 5},
                           "V_real": "1e308"},
    "overflow-p": {"kind": "matrix", "data": [[1, 0], [0, 2]],
                   "pseudometric": [[0, 1e300], [1e300, 0]]},
}
ONE_STATE = {"kind": "matrix", "data": [[0]]}
SCALED_P = {"kind": "matrix", "data": [[[0, 0.6], [1, 0]], [[1, 0], [0, -0.6]]],
            "pseudometric": [[0, 1e11], [1e11, 0]]}
EDGE_P = dict(SCALED_P, pseudometric=[[0, 9e153], [9e153, 0]])
# H = P^-1 M with M = [[2, 1], [1, 3]] positive definite: real, and
# P-pseudo-Hermitian with a real simple spectrum
REAL_DENSE_P = {"kind": "matrix", "data": [[2, 1], [-1, -3]],
                "pseudometric": [[1, 0], [0, -1]]}
FLIP_P = dict(BROKEN_EVOLVE, pseudometric=np.fliplr(np.eye(201)).tolist())
JORDAN_EDGE = {"kind": "matrix", "data": [[1, 1.3e154], [0, 1]]}
POLE_AT_ZERO = {"kind": "schroedinger", "grid": {"L": 1, "N": 11},
                "V_real": "1/x"}
MIXED_HERMITIAN = {"kind": "matrix", "data": [[1, [0, 0.5]], [[0, -0.5], 2]]}


def explicit_p_model() -> dict:
    """H = P^-1 M with P = diag(1, 2, -1.5, 3) and M Hermitian positive
    definite: H is P-pseudo-Hermitian with a real simple spectrum."""
    p = np.diag([1.0, 2.0, -1.5, 3.0])
    m = np.array([[4.0, 1.0, 0.5j, 0.0],
                  [1.0, 3.0, 0.25, -0.5j],
                  [-0.5j, 0.25, 5.0, 1.0],
                  [0.0, 0.5j, 1.0, 2.0]])
    h = np.linalg.solve(p, m)

    def data(a):
        return [[[float(z.real), float(z.imag)] for z in row] for row in a]
    return {"kind": "matrix", "data": data(h), "pseudometric": data(p)}


def readme_models() -> list[dict]:
    """The model documents of the README's JSON example block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while block[pos:].strip():
        pos += len(block[pos:]) - len(block[pos:].lstrip())
        doc, pos = decoder.raw_decode(block, pos)
        docs.append(doc)
    return docs


def corpus(seeds) -> list[tuple[str, dict]]:
    """(label, document) pairs; documents repeated across plans run once."""
    named = [(f"readme-{k}", doc) for k, doc in enumerate(readme_models())]
    named += [("broken-evolve", BROKEN_EVOLVE), ("identity-p", IDENTITY_P),
              ("explicit-p", explicit_p_model()),
              ("overflow-check", OVERFLOW_CHECK)]
    named += list(OVERFLOW_NORM.items())
    named += [("one-state", ONE_STATE), ("scaled-p", SCALED_P),
              ("edge-p", EDGE_P), ("real-dense-p", REAL_DENSE_P),
              ("broken-evolve-flip-p", FLIP_P), ("jordan-edge", JORDAN_EDGE),
              ("pole-at-zero", POLE_AT_ZERO),
              ("mixed-hermitian", MIXED_HERMITIAN)]
    for workload in WORKLOADS:
        for seed in seeds:
            named += [(f"{workload}-s{seed}/{m['id']}", m["doc"])
                      for m in build_plan(workload, seed)["models"]]
    seen, out = set(), []
    for label, doc in named:
        key = json.dumps(doc, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append((label, doc))
    return out


def nonfinite_output(stdout: str, fmt: str) -> bool:
    """Whether a call's output holds a non-finite value, by the rule of
    bench/worker.py: any CSV field, or any value in the JSON rows."""
    if fmt == "csv":
        return any(_is_nonfinite(field) for line in stdout.splitlines()
                   for field in line.split(","))
    return bool(stdout) and _scan_json(json.loads(stdout)["rows"])


def run_call(argv: list[str], fmt: str
             ) -> tuple[int, str, str, bool, bool]:
    """Exit code, stdout, the digest of what a user sees, whether the
    output holds a non-finite value, and whether the call raised a
    warning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    stdout = out.getvalue()
    text = stdout + err.getvalue() + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in caught)
    return (code, stdout, hashlib.sha256(text.encode()).hexdigest(),
            nonfinite_output(stdout, fmt), bool(caught))


def verdicts(stdout: str) -> str:
    """The name and pass flag of each row of a JSON report, or "" for a
    call that printed none."""
    rows = json.loads(stdout)["rows"] if stdout else []
    return "".join(f" {row['name']}={json.dumps(row['pass'])}"
                   for row in rows)


def values(label: str, shown: str, stdout: str) -> list[str]:
    """One JSON line per row of a JSON report: the call, the row's name,
    value, tol and pass flag."""
    rows = json.loads(stdout)["rows"] if stdout else []
    return [json.dumps([label, shown, row["name"], row["value"], row["tol"],
                        row["pass"]]) for row in rows]


def _numbers(value) -> list[float] | None:
    """The numbers of a row value, nested lists flattened; None for a value
    that holds anything else (a string, a flag, null)."""
    if isinstance(value, list):
        parts = [_numbers(v) for v in value]
        if any(part is None for part in parts):
            return None
        return [x for part in parts for x in part]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    return None


def compare_values(path_a: str, path_b: str) -> int:
    """Print the largest |Delta value| / tol between two ``--values``
    outputs, over all rows with a tol and over those that pass on either
    side, and the count in each output of every row name that only one
    output has."""
    def read(path):
        out, seen = {}, {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            label, shown, name, value, tol, passed = json.loads(line)
            key = (label, shown, name)
            seen[key] = seen.get(key, -1) + 1
            out[key + (seen[key],)] = (value, tol, passed)
        return out

    a, b = read(path_a), read(path_b)
    worst = dict.fromkeys(("all rows", "rows passing on either side"),
                          (0.0, None))
    compared = moved = 0
    for key in sorted(a.keys() & b.keys()):
        (va, tol, pa), (vb, _, pb) = a[key], b[key]
        xa, xb = _numbers(va), _numbers(vb)
        if not tol or xa is None or xb is None or len(xa) != len(xb):
            continue
        compared += 1
        delta = max((abs(p - q) for p, q in zip(xa, xb)), default=0.0)
        moved += delta != 0.0
        for scope, passing in (("all rows", True),
                               ("rows passing on either side", pa or pb)):
            if passing and delta / tol > worst[scope][0]:
                worst[scope] = (delta / tol, (key, va, vb))
    print(f"{compared} rows with a tol compared, {moved} moved; "
          f"{len(a.keys() ^ b.keys())} rows in one output only")
    only_a = Counter(key[2] for key in a.keys() - b.keys())
    only_b = Counter(key[2] for key in b.keys() - a.keys())
    for name in sorted(only_a.keys() | only_b.keys()):
        print(f"  {name}: {only_a[name]} in A only, {only_b[name]} in B only")
    for scope, (ratio, where) in worst.items():
        print(f"largest |delta value|/tol over {scope}: {ratio:.3g}")
        if where is not None:
            (label, shown, name, _), va, vb = where
            print(f"  {label} {shown} {name}: {json.dumps(va)} "
                  f"against {json.dumps(vb)}")
    return 0


def main_digests(seeds, mode: str = "digests") -> int:
    internal = nonfinite = warned = 0
    formats = FORMATS if mode == "digests" else ("json",)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "model.json")
        for label, doc in corpus(seeds):
            Path(path).write_text(json.dumps(doc), encoding="utf-8")
            for task in TASKS:
                for fmt in formats:
                    argv = task + ["--model", path, "--format", fmt]
                    code, stdout, digest, bad, warning = run_call(argv, fmt)
                    internal += code == 3
                    nonfinite += bad
                    warned += warning
                    shown = " ".join(task + ["--format", fmt])
                    if mode == "verdicts":
                        print(f"{code} {label} {shown}{verdicts(stdout)}",
                              flush=True)
                    elif mode == "values":
                        for line in values(label, shown, stdout):
                            print(line, flush=True)
                    else:
                        print(f"{code} {digest} {label} {shown}", flush=True)
    print(f"{internal} internal errors", file=sys.stderr)
    print(f"{nonfinite} outputs with a non-finite value", file=sys.stderr)
    print(f"{warned} calls that raised a warning", file=sys.stderr)
    return 1 if internal or nonfinite or warned else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload-seeds", type=int, nargs="*",
                        default=[1, 2])
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--verdicts", action="store_true",
                       help="print each JSON call's exit code and row "
                       "verdicts in place of the digests")
    modes.add_argument("--values", action="store_true",
                       help="print each JSON row's name, value, tol and "
                       "pass flag, one JSON line per row")
    modes.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="print the largest |delta value|/tol between "
                       "two --values outputs")
    args = parser.parse_args()
    if args.compare:
        raise SystemExit(compare_values(*args.compare))
    raise SystemExit(main_digests(
        args.workload_seeds,
        "verdicts" if args.verdicts else "values" if args.values
        else "digests"))
