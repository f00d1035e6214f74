"""One benchmark run in one process: set up, run timed passes, check verdicts.

``run.py`` starts this file as a child process, so that the BLAS thread
count is fixed before numpy loads and the peak RSS read at the end
belongs to the workload alone.  It prints one JSON object with the raw
per-pass measurements as its last line of output; ``run.py`` turns those
into the reported metrics.

Scenarios run in-process through the public ``sqmzoo.cli`` entry points
(``load_scenario``, ``build_model``, ``build_sample_spec``,
``run_checks``) and ``report.render_report``.  Each check entry of a
scenario goes to ``run_checks`` on its own, which runs exactly the same
checks and lets the traced run attribute time to each check name.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Each workload is a fixed set of shipped scenarios; one pass runs every
# scenario of the set once.  NOTES.md says why each set exists.
WORKLOADS = {
    # 78 relations on 16-dim Fock matrices over 4 coordinates; relations
    # share operators, so DAG dispatch and scale tracking dominate.
    "dag-16": ("hyperkahler_gh", "kahler_warped"),
    # 31 relations dominated by the jet kernels: 64x64 products in
    # wz_modes, matrix_exp series in hkt_conformal and dolbeault.
    "kernel": ("wz_modes", "hkt_conformal", "dolbeault"),
}

# Set-up is timed on its own, before the first pass and after every pass:
# each time at least SETUP_REPEATS times and for at least SETUP_SECONDS.
# One set-up takes only 0.04-0.5 s and the host's speed drifts over
# seconds to minutes (NOTES.md), so samples taken at one moment would all
# share that moment's speed.  The first sample is the cold set-up of a
# fresh process.
SETUP_REPEATS = 2
SETUP_SECONDS = 0.5


def scenario_path(root, name):
    return root / "scenarios" / f"{name}.yaml"


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@contextmanager
def no_span(_name):
    yield


def set_up(cli, path, seed, span=no_span):
    """load_scenario + build_model + build_sample_spec, as the CLI does."""
    with span("setup.load"):
        doc = cli.load_scenario(path)
    with span("zoo.build"):
        model = cli.build_model(doc["model"])
    with span("setup.spec"):
        spec = cli.build_sample_spec(doc, model, seed=seed)
    return doc, model, spec


def time_setups(cli, root, scenarios, seed, out):
    """Append the set-up times of the whole workload to ``out``."""
    t_start, n = time.perf_counter(), 0
    while n < SETUP_REPEATS or time.perf_counter() - t_start < SETUP_SECONDS:
        n += 1
        gc.collect()
        t0 = time.perf_counter()
        for name in scenarios:
            set_up(cli, scenario_path(root, name), seed)
        out.append(time.perf_counter() - t0)


def tolerances(report, doc):
    section = doc.get("tolerances") or {}
    return (float(section.get("pass", report.TOL_PASS)),
            float(section.get("violation", report.TOL_VIOLATION)))


def check_name(entry):
    return entry if isinstance(entry, str) else entry["name"]


def run_scenario(cli, report, path, seed, span=no_span):
    """Run one scenario; returns (reports, text, check_s, errors).

    ``errors`` lists the exceptions raised by set-up or by a check; a
    failing check adds no reports, so its relations count as missing.
    """
    reports, errors = [], []
    try:
        doc, model, spec = set_up(cli, path, seed, span)
    except Exception as exc:  # counted as failed relations by the caller
        errors.append(f"set-up: {type(exc).__name__}: {exc}")
        return reports, "", 0.0, errors
    t0 = time.perf_counter()
    tols = tolerances(report, doc)
    for entry in doc.get("checks") or ["suite"]:
        with span(f"verify.{check_name(entry)}"):
            try:
                reports.extend(cli.run_checks({"checks": [entry]}, model,
                                              spec, tols))
            except Exception as exc:  # counted as failed by the caller
                errors.append(
                    f"{check_name(entry)}: {type(exc).__name__}: {exc}")
    check_s = time.perf_counter() - t0
    with span("report.render"):
        header = (f"scenario: {doc.get('name', path)} | model: {model.name} "
                  f"| seed: {spec.seed} | points: {spec.n_points}")
        text = report.render_report(reports, header=header)
    return reports, text, check_s, errors


def compare(reports, expected):
    """Relations that fail against the reference ``[[label, verdict], ...]``.

    A relation fails if it is missing, if its label or verdict differs
    from the reference, or if its verdict is not ok.  Extra relations
    fail too.
    """
    failed = 0
    for i, (label, verdict) in enumerate(expected):
        if i >= len(reports):
            failed += 1
            continue
        r = reports[i]
        if r.name != label or r.verdict != verdict or not r.ok:
            failed += 1
    failed += max(0, len(reports) - len(expected))
    return failed, max(len(expected), len(reports))


def run_pass(cli, report, root, scenarios, reference, seed, span=no_span):
    gc.collect()
    out = {"check_s": 0.0, "point_relations": 0, "attempted": 0,
           "failed": 0, "bytes_identical": 0, "errors": []}
    w0, c0 = time.perf_counter(), time.process_time()
    with span("pass"):
        for name in scenarios:
            with span(f"scenario.{name}"):
                reports, text, check_s, errors = run_scenario(
                    cli, report, scenario_path(root, name), seed, span)
            ref = reference[name]
            failed, attempted = compare(reports, ref["relations"])
            out["check_s"] += check_s
            out["point_relations"] += sum(r.samples.n_points
                                          for r in reports)
            out["attempted"] += attempted
            out["failed"] += failed
            out["errors"].extend(f"{name}: {e}" for e in errors)
            if seed == ref["seed"]:
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                out["bytes_identical"] += digest == ref["report_sha256"]
    out["wall_s"] = time.perf_counter() - w0
    out["cpu_s"] = time.process_time() - c0
    return out


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.split()[-1].lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def trace_metrics(snap, wall_s):
    """Per-module numbers of one traced pass from the tracer's totals."""
    def stat(name, key):
        return snap.get(name, {}).get(key, 0)

    out = {}
    calls = stat("fields.eval_jet", "calls")
    computed = stat("fields.eval_jet", "computed")
    out["fields.eval_jet.calls"] = calls
    out["fields.eval_jet.computed"] = computed
    out["fields.cache_hit_ratio"] = (1.0 - computed / calls) if calls else 0.0
    out["fields.eval_jet.self_s"] = stat("fields.eval_jet", "self_s")
    out["fields.mag_update.calls"] = stat("fields.mag_update", "calls")
    out["fields.mag_update.self_s"] = stat("fields.mag_update", "self_s")
    for k in ("mul", "scal_mul"):
        name = f"jets.{k}"
        self_s = stat(name, "self_s")
        flops = stat(name, "flops")
        out[f"{name}.calls"] = stat(name, "calls")
        out[f"{name}.self_s"] = self_s
        out[f"{name}.flops"] = flops
        out[f"{name}.bytes"] = stat(name, "bytes")
        out[f"{name}.gflops"] = flops / self_s / 1e9 if self_s else 0.0
    out["jets.matrix_exp.calls"] = stat("jets.matrix_exp", "calls")
    out["jets.matrix_exp.self_s"] = stat("jets.matrix_exp", "self_s")
    out["jets.matrix_exp.mul_calls"] = stat("jets.matrix_exp", "mul_calls")
    out["jets.extract.calls"] = stat("jets.extract", "calls")
    out["jets.extract.self_s"] = stat("jets.extract", "self_s")
    # Layers that some workload never enters are given as a share of the
    # pass, so that no per-module time reads a constant 0 on every run.
    out["jets.matrix_inv.calls"] = stat("jets.matrix_inv", "calls")
    out["jets.matrix_inv.share"] = (
        100.0 * stat("jets.matrix_inv", "self_s") / wall_s)
    out["diffop.compose.calls"] = stat("diffop.compose", "calls")
    out["diffop.compose.self_s"] = stat("diffop.compose", "self_s")
    out["diffop.similarity.self_s"] = stat("diffop.similarity", "self_s")
    out["diffop.is_zero.calls"] = stat("diffop.is_zero", "calls")
    out["diffop.is_zero.self_s"] = stat("diffop.is_zero", "self_s")
    out["diffop.point_evals"] = stat("diffop.point_evals", "calls")
    out["zoo.build_s"] = stat("zoo.build", "incl")
    out["geometry.self_s"] = stat("geometry", "self_s")
    out["expr.eval_jet.self_s"] = stat("expr.eval_jet", "self_s")
    for name, st in snap.items():
        if name.startswith("verify."):
            out[f"{name}.share"] = 100.0 * st["incl"] / wall_s
    out["verify.checks_s"] = sum(st["incl"] for name, st in snap.items()
                                 if name.startswith("verify."))
    # time no module span covers: benchmark and CLI glue, report, clifford
    bench = ("pass", "scenario.", "setup.", "verify.", "report.render")
    out["trace.unattributed_s"] = sum(
        st["self_s"] for name, st in snap.items()
        if name.startswith(bench))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    root = HERE.parent
    t_import = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    from sqmzoo import cli, report
    import_s = time.perf_counter() - t_import

    reference = load_reference()
    scenarios = WORKLOADS[args.workload]

    setups = []
    time_setups(cli, root, scenarios, args.seed, setups)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    passes, traced = [], []
    # Passes run while the next one is expected to end within --seconds,
    # so a run measures for at most about that long; there is always one
    # (one untraced and one traced pass when tracing).
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        passes.append(run_pass(cli, report, root, scenarios, reference,
                               args.seed))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(cli, report, root, scenarios, reference,
                             args.seed, tracer.span)
            finally:
                tracer.uninstall()
            p["trace"] = trace_metrics(tracer.snapshot(), p["wall_s"])
            traced.append(p)
        time_setups(cli, root, scenarios, args.seed, setups)
        now = time.perf_counter()
        if now - start + (now - t_round) > args.seconds:
            break

    result = {
        "import_s": import_s,
        "setups": setups,
        "passes": passes,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None and args.trace_out:
        tracer.write(args.trace_out, {"workload": args.workload,
                                      "seed": args.seed})
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
