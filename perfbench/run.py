"""sqmzoo benchmark: time shipped scenarios end to end and check their verdicts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dag-16 --seed 7 --seconds 56 --trace 0

The workload runs in one child process (``worker.py``) with the BLAS
thread count fixed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-module metrics of a traced
pass with ``--trace 1``.  ``--trace-out FILE`` also writes the traced
run's spans.  BENCHMARK.json lists the metrics; NOTES.md explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program gains no wall time from a second OpenBLAS thread on these
# shapes (NOTES.md), and a spinning second thread adds CPU time and noise.
BLAS_THREADS = 1
# Every run must end within 180 s; the child is stopped before that.
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(args):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    proc = subprocess.run(cmd, env=child_env(), cwd=str(ROOT),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def end_to_end(res):
    passes = res["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(res["setups"]),
        "point_relations_per_s": statistics.median(
            p["point_relations"] / p["check_s"] for p in passes),
        "peak_rss_mb": res["peak_rss_mb"],
        "relations_ok_frac": (attempted - failed) / attempted,
    }


def per_module(res, names):
    traced = res["traced"]
    attempted = sum(p["attempted"] for p in traced)
    failed = sum(p["failed"] for p in traced)
    out = {
        "trace.overhead_s": statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in res["passes"]),
        "verify.relations": statistics.median(p["attempted"] for p in traced),
        "verify.relations_failed_frac": failed / attempted,
        "verify.reports_byte_identical": statistics.median(
            p["bytes_identical"] for p in traced),
        "setup.cold_s": res["setups"][0],
        "blas.threads": res["blas_threads"] or 0,
    }
    for name in names:
        if name not in out:
            out[name] = statistics.median(p["trace"].get(name, 0)
                                          for p in traced)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None,
                    help="write the traced run's spans to this JSON file")
    args = ap.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run stops the worker
    # and waits for it before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    missing = [p for p in (ROOT / "src" / "sqmzoo" / "__init__.py",
                           ROOT / "scenarios", HERE / "reference.json")
               if not p.exists()]
    if missing:
        print(f"error: not a sqmzoo checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        specs = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    try:
        res = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = res["passes"] + res["traced"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for err in p["errors"]:
            print(f"relation error: {err}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: blas threads "
          f"{res['blas_threads']}, import {res['import_s']:.3f} s, "
          f"{len(res['setups'])} set-ups: first "
          f"{res['setups'][0]:.3f} s, median "
          f"{statistics.median(res['setups']):.3f} s, untraced passes "
          f"{[round(p['wall_s'], 3) for p in res['passes']]} s, traced passes "
          f"{[round(p['wall_s'], 3) for p in res['traced']]} s",
          file=sys.stderr)
    values = (per_module(res, [m["name"] for m in specs]) if args.trace
              else end_to_end(res))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
