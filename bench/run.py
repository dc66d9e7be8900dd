"""End-to-end and per-layer benchmark of quasiherm.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's model documents from the seed (bench/workloads.py),
times import-to-ready in fresh interpreters (setup_s), then runs the
workload in one more fresh interpreter (bench/worker.py) with BLAS and
OpenMP pinned to one thread.  Times are scaled to reference seconds by
the host-speed probe of bench/speed.py; plain seconds are in the record.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs untraced and traced passes and reports the per-layer
metrics.  The last line of standard output is the
result JSON; the line before it is the detailed record, also written to
bench/out/<workload>-seed<N>-trace<T>.json together with the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
RUN_LIMIT_S = 170

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

# import time, then the speed probe twice (the first call warms it up)
SETUP_PROBE = ("import time; t = time.perf_counter();"
               " from quasiherm.cli import main; t = time.perf_counter() - t;"
               " import speed; speed.probe(); print(t, speed.probe())")


def pinned_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH)))
    return env


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "quasiherm").glob("*.py")):
        source.update(path.read_bytes())
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "threads": {k: pinned_env().get(k) for k in PINNED},
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "commit": commit,
            "source_sha256": source.hexdigest()}


def setup_seconds(env) -> tuple[float, float]:
    """Median time from a fresh interpreter's first statement to a ready
    cli.main, in reference seconds and in seconds."""
    ref, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        seconds, probe_s = map(float, proc.stdout.split())
        ref.append(speed.in_reference_seconds(seconds, probe_s))
        raw.append(seconds)
    return statistics.median(ref), statistics.median(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quasiherm benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()
    # SystemExit inside subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "quasiherm" / "cli.py").is_file():
        print(f"bench: no quasiherm sources under {SRC}", file=sys.stderr)
        return 2

    plan = workloads.build_plan(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=name + "-", dir=OUT)
    try:
        for model in plan["models"]:
            with open(os.path.join(workdir, model["id"] + ".json"), "w",
                      encoding="utf-8") as fh:
                json.dump(model["doc"], fh)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)

        env = pinned_env()
        setup_s, setup_raw_s = setup_seconds(env)
        cmd = [sys.executable, str(BENCH / "worker.py"), plan_path,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", str(OUT / f"{name}.spans.jsonl")]
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=max(1.0, RUN_LIMIT_S - (monotonic() - started)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"bench: worker exited with code {proc.returncode}",
              file=sys.stderr)
        return 1
    run = json.loads(proc.stdout.splitlines()[-1])

    correct = not run["oracle_errors"] and not run["nondeterministic"]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    values = run["layers"] if args.trace else dict(run, setup_s=setup_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "setup_s": setup_s,
              "setup_raw_s": setup_raw_s,
              "failed_frac": run["failed"] / run["attempted"], **run}
    with open(OUT / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "call_walls"}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
