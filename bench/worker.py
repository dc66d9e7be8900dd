"""Run one workload plan in this fresh interpreter and print its result.

Usage: python3 bench/worker.py PLAN.json --seconds S --trace 0|1

Every call goes through ``quasiherm.cli.main(argv)`` in process with
``--out`` pointing to a file, so a timed call covers argument parsing, the
task, rendering and the write.  One client, closed loop: the next call
starts when the previous one has returned.  Whole passes over the plan's
calls are repeated until about ``S`` seconds are spent.  Between calls,
at least every PROBE_INTERVAL_S of call time, the host-speed probe of
bench/speed.py runs, so that times can be given in reference seconds.
With ``--trace 1`` the first half of the time runs untraced and the
second half traced.

Refuses to run (exit 4) unless BLAS runs single-threaded.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import warnings
from time import perf_counter

import numpy as np
from quasiherm import cli

from speed import in_reference_seconds, probe
from tracer import LAYERS, Tracer

PINNED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a call's output counts as non-finite if any value renders as one of these
NON_FINITE = {"nan", "inf", "-inf"}

HEADROOM_CAP = 16.0

# eigenvalues from the report must match numpy's within this share of the
# spectral radius, times the eigenvalue's condition number
EIG_ORACLE_RTOL = 1e-8

# family samples must match the numpy evaluation of the same expressions
FAMILY_ORACLE_ATOL = 1e-10

# the speed probe runs between calls at least this often (in call time)
PROBE_INTERVAL_S = 0.5

def blas_runtime_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _is_nonfinite(text: str) -> bool:
    return text.strip('"') in NON_FINITE


def _scan_json(value) -> bool:
    """Whether any value in a parsed report is non-finite."""
    if isinstance(value, str):
        return _is_nonfinite(value)
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, list):
        return any(_scan_json(v) for v in value)
    if isinstance(value, dict):
        return any(_scan_json(v) for v in value.values())
    return False


def _headroom(rows) -> tuple[float, str | None]:
    """min log10(tol / |value|) over passing rows that carry a tol, and the
    row where it is taken."""
    best, where = HEADROOM_CAP, None
    for row in rows:
        value, tol = row.get("value"), row.get("tol")
        if row.get("pass") is not True or tol is None:
            continue
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            digits = (HEADROOM_CAP if value == 0
                      else math.log10(tol / abs(value)))
            if digits < best:
                best, where = digits, row["name"]
    return best, where


def _check_eigenvalues(rows, model, prefix) -> str | None:
    """Every numpy eigenvalue must have a reported one within its
    tolerance, and every reported one must lie within the tolerance of
    some numpy eigenvalue.  The tolerance grows with the eigenvalue's
    condition number, since both solves see rounding-level perturbations."""
    row = rows.get(prefix + "eigenvalues")
    if row is None:
        return None
    got = np.array([complex(*z) for z in row["value"]])
    want = np.array([complex(*z) for z in model["eigenvalues"]])
    if got.size != want.size:
        return "eigenvalue count differs from the numpy oracle"
    tol = (EIG_ORACLE_RTOL * max(1.0, float(np.abs(want).max()))
           * np.asarray(model["eig_conditions"]))
    close = np.abs(got[:, None] - want[None, :]) <= tol[None, :]
    if not (close.any(axis=0).all() and close.any(axis=1).all()):
        return "eigenvalues differ from the numpy oracle"
    return None


def _check_family_series(text, model) -> str | None:
    """Compare CSV series (forward S/Lambda, inverse sigma/alpha) to numpy."""
    oracle = model["oracle"]
    names = {"S": "S", "Lambda": "Lambda", "sigma_recovered": "sigma",
             "alpha_recovered": "alpha"}
    seen: dict[str, list[float]] = {}
    for line in text.splitlines()[1:]:
        _, series, value = line.split(",")
        if series in names:
            seen.setdefault(names[series], []).append(float(value))
    for key, got in seen.items():
        want = oracle[key]
        if len(got) != len(want):
            return f"{key} series has {len(got)} samples, expected {len(want)}"
        err = max(abs(g - w) for g, w in zip(got, want))
        if err > FAMILY_ORACLE_ATOL * max(1.0, max(map(abs, want))):
            return f"{key} differs from the numpy oracle by {err:.3e}"
    return None


def check_output(call, model, code, text):
    """(failure reason or None, oracle error or None, headroom or None).

    A failure is what failed_frac counts: an unexpected exit
    code, exit code 2 or 3, or a non-finite value in the output.  An oracle
    error means a value the program printed is wrong.
    """
    if code in (2, 3):
        return f"exit code {code}", None, None
    is_csv = "csv" in call["argv"]
    if is_csv:
        nonfinite = any(_is_nonfinite(field) for line in text.splitlines()
                        for field in line.split(","))
        oracle = _check_family_series(text, model)
        headroom = None
    else:
        doc = json.loads(text)
        nonfinite = _scan_json(doc["rows"])
        rows = {r["name"]: r for r in doc["rows"]}
        prefix = "spectrum." if call["argv"][0] == "report" else ""
        oracle = None
        if model["kind"] != "family":
            oracle = _check_eigenvalues(rows, model, prefix)
        elif prefix and "family-forward.S_sup" in rows:
            want = max(map(abs, model["oracle"]["S"]))
            got = rows["family-forward.S_sup"]["value"]
            if abs(got - want) > FAMILY_ORACLE_ATOL * max(1.0, want):
                oracle = f"S_sup {got!r} differs from the oracle {want!r}"
        headroom = _headroom(doc["rows"])
    if code != call["expect"]:
        return f"exit code {code}, expected {call['expect']}", oracle, headroom
    if nonfinite:
        return "non-finite value in the output", oracle, headroom
    return None, oracle, headroom


class Runner:
    """Runs calls through cli.main and checks every output."""

    def __init__(self, plan, workdir):
        self.models = {m["id"]: m for m in plan["models"]}
        self.workdir = workdir
        self.digests: dict[int, str] = {}
        self.failures: dict[str, str] = {}
        self.oracle_errors: dict[str, str] = {}
        self.nondeterministic: set[str] = set()
        self.headroom = HEADROOM_CAP
        self.headroom_row = None
        self.warnings = 0
        self.attempted = 0
        self.failed = 0

    def run(self, index, call, tracer=None) -> float:
        """Run one call; returns its wall time in seconds."""
        model = self.models[call["model"]]
        out = os.path.join(self.workdir, f"out-{index}")
        argv = call["argv"] + ["--model", os.path.join(
            self.workdir, f"{model['id']}.json"), "--out", out]
        if tracer is not None:
            tracer.call += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            wall = perf_counter() - t0
        self.warnings += len(caught)
        self._check(index, call, model, code, out)
        return wall

    def _check(self, index, call, model, code, out):
        label = f"{model['id']} {' '.join(call['argv'])}"
        text = ""
        if code not in (2, 3):
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(index, digest) != digest:
                self.nondeterministic.add(label)
        failure, oracle, headroom = check_output(call, model, code, text)
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.failures[label] = failure
        elif headroom is not None and headroom[0] < self.headroom:
            self.headroom = headroom[0]
            self.headroom_row = f"{label}: {headroom[1]}"
        if oracle is not None:
            self.oracle_errors[label] = oracle

    def run_passes(self, calls, seconds, tracer=None):
        """Whole passes until about ``seconds``.

        Returns per-pass walls and, per call of the plan, its walls and
        its probe times (the mean of the speed probes just before and
        just after it) over the passes.  A pass is not started if it
        would end more than half a pass late.
        """
        pass_walls, call_walls = [], [[] for _ in calls]
        call_probes = [[] for _ in calls]
        before, pending, since = probe(), [], 0.0

        def settle():
            nonlocal before, pending, since
            after = probe()
            for j in pending:
                call_probes[j].append(0.5 * (before + after))
            before, pending, since = after, [], 0.0

        start = perf_counter()
        while True:
            walls = []
            for i, call in enumerate(calls):
                wall = self.run(i, call, tracer)
                walls.append(wall)
                call_walls[i].append(wall)
                pending.append(i)
                since += wall
                if since >= PROBE_INTERVAL_S:
                    settle()
            pass_walls.append(sum(walls))
            elapsed = perf_counter() - start
            if elapsed + 0.5 * elapsed / len(pass_walls) >= seconds:
                if pending:
                    settle()
                return pass_walls, call_walls, call_probes


def reference_walls(call_walls, call_probes) -> list[list[float]]:
    return [[in_reference_seconds(w, p) for w, p in zip(walls, probes)]
            for walls, probes in zip(call_walls, call_probes)]


def median_pass(call_walls) -> float:
    """Median over passes of the summed call walls of a pass."""
    return statistics.median(map(sum, zip(*call_walls)))


def p50_of_calls(call_walls) -> float:
    """Median over the plan's calls of each call's median over passes."""
    return statistics.median(statistics.median(w) for w in call_walls)


def tail(call_walls) -> dict | None:
    """Highest percentile of 90, 95, 99, 99.9 with >= 10 samples beyond it."""
    walls = sorted(call_walls)
    n = len(walls)
    for pct in (99.9, 99.0, 95.0, 90.0):
        beyond = math.floor(n * (1 - pct / 100))
        if beyond >= 10:
            return {"percentile": pct, "value_s": walls[n - beyond - 1],
                    "samples": n, "samples_beyond": beyond}
    return None


def layer_metrics(tracer, traced_walls, overhead_s, n_matrix_calls,
                  warnings_per_pass) -> dict:
    """Per-pass per-layer metrics from the traced spans."""
    calls, self_s = tracer.totals()
    n_passes = len(traced_walls)
    per_pass = {}
    for name in ("spectral.eigendecompose", "metrics.spectral_metric",
                 "metrics.certify_metric", "metrics.qh_residual",
                 "factorization.standard_charge", "factorization.verify_table",
                 "factorization.conjugation_in", "factorization.signature",
                 "family.compose_pct_residual", "family.charge_pg_hermiticity",
                 "family.discretize_hamiltonian", "family.discretize_charge",
                 "operators.parity_matrix", "expressions.sample",
                 "evolution.propagate", "evolution.norm_traces"):
        per_pass[f"{name}.calls"] = calls.get(name, 0) / n_passes
        per_pass[f"{name}.self_s"] = self_s.get(name, 0.0) / n_passes
    for name in ("models.run_scenario", "models.parse_model", "models.render",
                 "cli.main", "cli.build_parser"):
        per_pass[f"{name}.self_s"] = self_s.get(name, 0.0) / n_passes
    for layer in LAYERS:
        per_pass[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items()
            if k.startswith(layer + ".")) / n_passes
    for counter in ("spectral.eig_n3_sum", "expressions.points_sampled",
                    "evolution.trace_points", "models.report_bytes",
                    "family.dense_bytes_computed"):
        per_pass[counter] = tracer.counters.get(counter, 0.0) / n_passes
    eig_calls = calls.get("spectral.eigendecompose", 0) / n_passes
    per_pass["spectral.eig_per_model"] = (eig_calls / n_matrix_calls
                                          if n_matrix_calls else 0.0)
    per_pass["models.warnings"] = warnings_per_pass
    per_pass["trace.coverage"] = sum(self_s.values()) / sum(traced_walls)
    per_pass["trace.overhead_s"] = overhead_s
    per_pass["trace.spans"] = len(tracer.spans) / n_passes
    return per_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    unpinned = [v for v in PINNED_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"worker: BLAS threads not pinned ({', '.join(unpinned)}); "
              "refusing to time", file=sys.stderr)
        return 4
    runtime = blas_runtime_threads()
    if runtime not in (None, 1):
        print(f"worker: BLAS runs {runtime} threads; refusing to time",
              file=sys.stderr)
        return 4

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    workdir = os.path.dirname(os.path.abspath(args.plan))
    warm = Runner(plan, workdir)
    for i, call in enumerate(plan["warmup"]):
        warm.run(-1 - i, call)
    runner = Runner(plan, workdir)
    calls = plan["calls"]

    budget = args.seconds / 2 if args.trace else args.seconds
    pass_walls, call_walls, call_probes = runner.run_passes(calls, budget)
    ref_walls = reference_walls(call_walls, call_probes)
    result = {
        "attempted": runner.attempted, "failed": runner.failed,
        "passes": len(pass_walls), "calls_per_pass": len(calls),
        "wall_s": median_pass(ref_walls),
        "call_p50_s": p50_of_calls(ref_walls),
        "wall_raw_s": statistics.median(pass_walls),
        "call_p50_raw_s": p50_of_calls(call_walls),
        "probe_s": statistics.median(p for ps in call_probes for p in ps),
        "call_tail": tail([w for walls in call_walls for w in walls]),
        "pass_walls": pass_walls,
        "call_walls": {f"{c['model']} {' '.join(c['argv'])}": w
                       for c, w in zip(calls, call_walls)},
        "tol_headroom_digits": runner.headroom,
        "tol_headroom_row": runner.headroom_row,
        "blas_runtime_threads": runtime,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        warnings_before = runner.warnings
        traced_walls, traced_calls, traced_probes = runner.run_passes(
            calls, budget, tracer)
        n_matrix = sum(1 for c in calls
                       if runner.models[c["model"]]["kind"] != "family")
        result["layers"] = layer_metrics(
            tracer, traced_walls,
            median_pass(reference_walls(traced_calls, traced_probes))
            - result["wall_s"], n_matrix,
            (runner.warnings - warnings_before) / len(traced_walls))
        result["attempted"], result["failed"] = runner.attempted, runner.failed
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    result["failures"] = runner.failures
    result["oracle_errors"] = runner.oracle_errors
    result["nondeterministic"] = sorted(runner.nondeterministic)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
