"""Scenario-driven command line: build a model, run its checks, emit a
deterministic report.

Scenarios are YAML documents restricted to plain mappings, sequences,
strings, and numbers (see docs/scenarios.md for the exact schema):

    name: witten-cubic
    model:
      constructor: witten
      params: {W: "x^3 - x"}
    checks: [suite]
    box: {x: [-1.5, 1.5]}
    seed: 7
    points: 20
    tolerances: {pass: 1.0e-9, violation: 1.0e-3}
    report: witten.report.txt

Check entries (``verify.CHECKS`` names the checks) follow four rules:

* ``expect`` applies to every check: it replaces the expectation of each
  relation expected to pass, while built-in ``violated`` (gauge Q^2) and
  ``exploratory`` relations keep theirs;
* a per-check ``tol`` can only tighten the pass gate, never loosen it;
* with ``expect: any`` at least one relation must come out violated,
  else the check adds a failing ``<check>: no relation violated`` record;
* an unknown check name, ``expect`` value, entry key or operator name, a
  missing ``equal`` operand, ``points < 1``, a ``box`` key that is not a
  model coordinate, and a box with ``lo >= hi`` are scenario errors.

Exit status is 0 iff every non-exploratory check passes (expected
violations count as passing their contract), 1 if one fails, and 2 on a
scenario error.
"""

from __future__ import annotations

import argparse
import inspect
import sys

import yaml

from . import verify, zoo
from .diffop import Exclusion, SampleSpec, pretty
from .expr import parse as parse_expr
from .report import EXPECTATIONS, TOL_PASS, TOL_VIOLATION, render_report

_SCENARIO_KEYS = {"name", "model", "checks", "box", "exclusions", "seed",
                  "points", "tolerances", "report"}


class ScenarioError(ValueError):
    pass


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    unknown = set(doc) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    if "model" not in doc:
        raise ScenarioError(f"{path}: missing 'model' section")
    model = doc["model"]
    if not isinstance(model, dict) or "constructor" not in model:
        raise ScenarioError(f"{path}: model needs a 'constructor'")
    return doc


def build_model(model_section):
    ctor_name = model_section["constructor"]
    params = dict(model_section.get("params") or {})
    if ctor_name == "torsion_rotate":
        base = params.pop("base", None)
        if not base:
            raise ScenarioError("torsion_rotate needs a 'base' model block")
        base_model = build_model(base)
        return zoo.torsion_rotate(base_model, params["B"],
                                  params.get("kind", "holomorphic"))
    try:
        ctor = zoo.CATALOG[ctor_name][0]
    except KeyError:
        raise ScenarioError(f"unknown constructor {ctor_name!r}") from None
    try:
        return ctor(**params)
    except TypeError as exc:
        raise ScenarioError(f"{ctor_name}: {exc}") from exc


def build_sample_spec(doc, model, seed=None, points=None):
    seed = seed if seed is not None else int(doc.get("seed", 0))
    points = points if points is not None else int(doc.get("points", 20))
    if points < 1:
        raise ScenarioError(f"points must be at least 1, got {points}")
    box_map = doc.get("box") or {}
    unknown = set(box_map) - set(model.coords)
    if unknown:
        raise ScenarioError(f"box keys {sorted(unknown)} are not coordinates "
                            f"of model {model.name} {list(model.coords)}")
    box = []
    for i, cname in enumerate(model.coords):
        if cname in box_map:
            lo, hi = (float(v) for v in box_map[cname])
            if lo >= hi:
                raise ScenarioError(f"box {cname}: need lo < hi, got "
                                    f"[{lo}, {hi}]")
            box.append((lo, hi))
        elif model.default_box:
            box.append(model.default_box[i])
        else:
            box.append((-1.0, 1.0))
    exclusions = list(model.default_exclusions)
    for exc in doc.get("exclusions") or []:
        expr = parse_expr(exc["expr"], model.coords)
        exclusions.append(Exclusion(expr, float(exc.get("min", 0.1))))
    return SampleSpec(box=tuple(box), n_points=points, seed=seed,
                      exclusions=tuple(exclusions))


def _check_entry(chk):
    """(name, expect, params) of one check entry, validated against the
    check's signature."""
    if isinstance(chk, str):
        name, params = chk, {}
    else:
        params = dict(chk)
        name = params.pop("name", None)
    expect = params.pop("expect", None)
    if name not in verify.CHECKS:
        raise ScenarioError(f"unknown check {name!r}")
    if expect is not None and expect not in EXPECTATIONS:
        raise ScenarioError(f"check {name!r}: unknown expect {expect!r}, "
                            f"use one of {list(EXPECTATIONS)}")
    try:
        inspect.signature(verify.CHECKS[name]).bind(None, **params)
    except TypeError as exc:
        raise ScenarioError(f"check {name!r}: {exc}") from None
    return name, expect, params


def run_checks(doc, model, spec, tols):
    entries = [_check_entry(chk) for chk in doc.get("checks") or ["suite"]]
    reports = []
    for name, expect, params in entries:
        try:
            reports.extend(verify.run_check(name, model, spec, tols, expect,
                                            **params))
        except KeyError as exc:
            raise ScenarioError(f"check {name!r} on model {model.name}: "
                                f"{exc.args[0]}") from None
    return reports


def run_scenario(path, seed=None, points=None, tol=None, report_path=None,
                 fail_on_gray=False):
    doc = load_scenario(path)
    model = build_model(doc["model"])
    spec = build_sample_spec(doc, model, seed=seed, points=points)
    tol_section = doc.get("tolerances") or {}
    tols = (float(tol if tol is not None else tol_section.get("pass", TOL_PASS)),
            float(tol_section.get("violation", TOL_VIOLATION)))
    reports = run_checks(doc, model, spec, tols)
    header = (f"scenario: {doc.get('name', path)} | model: {model.name} | "
              f"seed: {spec.seed} | points: {spec.n_points}")
    text = render_report(reports, header=header)
    out_path = report_path or doc.get("report")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    ok = all(r.ok for r in reports)
    if fail_on_gray:
        for r in reports:
            if r.verdict == "exploratory":
                gate_lo = tols[0] * (1.0 + r.residual.scale)
                gate_hi = tols[1] * (1.0 + r.residual.scale)
                if gate_lo < r.residual.max_abs < gate_hi:
                    ok = False
    return (0 if ok else 1), text


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="sqmzoo",
        description="build supersymmetric quantum mechanics models and "
                    "verify their superalgebras at sampled points")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--points", type=int, default=None)
    run_p.add_argument("--tol", type=float, default=None)
    run_p.add_argument("--report", default=None)
    run_p.add_argument("--fail-on-gray", action="store_true")

    sub.add_parser("list-models", help="print the model catalog")

    show_p = sub.add_parser("show-op", help="pretty-print a model operator")
    show_p.add_argument("scenario")
    show_p.add_argument("op_name")

    args = ap.parse_args(argv)
    if args.command == "list-models":
        print(zoo.list_models())
        return 0
    if args.command == "run":
        try:
            code, text = run_scenario(
                args.scenario, seed=args.seed, points=args.points,
                tol=args.tol, report_path=args.report,
                fail_on_gray=args.fail_on_gray)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text, end="")
        return code
    if args.command == "show-op":
        try:
            doc = load_scenario(args.scenario)
            model = build_model(doc["model"])
            op = model.op(args.op_name)
        except (ScenarioError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"# {model.name} :: {args.op_name}")
        print(pretty(op))
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
