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

Check entries (``verify.CHECKS`` names the checks) and values follow
seven rules:

* an absent or null key means its default, for a section and for an
  optional scalar alike: ``seed``, ``points``, ``tolerances.pass``,
  ``tolerances.violation``, an exclusion's ``min`` and a check's ``tol``;
* ``expect`` applies to every check: it replaces the expectation of each
  relation expected to pass, while built-in ``violated`` (gauge Q^2) and
  ``exploratory`` relations keep theirs;
* a per-check ``tol`` can only tighten the pass gate, never loosen it;
* with ``expect: any`` at least one relation must come out violated,
  else the check adds a failing ``<check>: no relation violated`` record;
* the pass gate, from ``tolerances.pass`` or ``--tol``, must satisfy
  ``0 < pass < violation``, so no gate can pass a violated relation;
* a scenario file that cannot be read or is not UTF-8 text, a
  ``report`` that is not a path or cannot be written, a model section
  or ``torsion_rotate`` ``base`` that is not a mapping with a catalog
  ``constructor`` and mapping ``params``, a ``params``, ``tolerances``,
  ``box`` or ``exclusions`` value of the wrong type, falsy ones such as
  ``false``, ``[]`` or ``0`` included, a model param the constructor
  does not take, a missing or unparsable one, a param value the
  constructor rejects with a ValueError or ArithmeticError, ``checks``
  that are not a list of at least one name or mapping with a string
  ``name``, an unknown check name, ``expect`` value, entry key or
  operator name, a missing ``equal`` operand, ``points < 1``, a negative
  ``seed``, a ``box`` key that is not a model coordinate, a box value
  that is not a list of two numbers ``lo < hi``, an ``exclusions`` entry
  without a parsable ``expr``, and a ``points``, ``seed``, tolerance,
  exclusion ``min`` or check ``tol`` that is not a number (``points``
  and ``seed`` whole, a ``tol`` positive; a YAML boolean is no number)
  are scenario errors;
* a relation whose evaluation raises a ValueError or ArithmeticError at
  a sample point (a failed positivity guard, an order overflow, a
  non-converging series, a division by zero) is a scenario error that
  names the check, the relation and the point.

Exit status is 0 iff every non-exploratory check passes (expected
violations count as passing their contract), 1 if one fails, and 2 on a
scenario error.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys

import yaml

from . import verify, zoo
from .diffop import EvaluationError, Exclusion, SampleSpec, pretty
from .expr import ExprError, parse as parse_expr
from .report import EXPECTATIONS, TOL_PASS, TOL_VIOLATION, render_report

_SCENARIO_KEYS = {"name", "model", "checks", "box", "exclusions", "seed",
                  "points", "tolerances", "report"}
# the keys of a model section or a torsion_rotate base block
_MODEL_KEYS = {"constructor", "params"}


class ScenarioError(ValueError):
    pass


# libyaml's parser, when PyYAML was built with it, reads a scenario about
# seven times faster than the pure-Python one and builds the same document
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse_yaml(text):
    """The document in ``text``.  A document that the fast parser rejects
    is parsed again by the pure-Python one, whose error quotes the
    offending line."""
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError:
        return yaml.safe_load(text)


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        why = getattr(exc, "strerror", None) or exc
        raise ScenarioError(f"{path}: cannot read scenario: {why}") from None
    try:
        doc = _parse_yaml(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    unknown = set(doc) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    if "model" not in doc:
        raise ScenarioError(f"{path}: missing 'model' section")
    return doc


def build_model(model_section):
    """The model of a scenario's ``model`` section or of a
    ``torsion_rotate`` ``base`` block."""
    if not isinstance(model_section, dict) or \
            not isinstance(model_section.get("constructor"), str):
        raise ScenarioError(f"model needs a mapping with a 'constructor' "
                            f"name, got {model_section!r}")
    ctor_name = model_section["constructor"]
    unknown = set(model_section) - _MODEL_KEYS
    if unknown:
        raise ScenarioError(f"{ctor_name}: unknown model keys "
                            f"{sorted(map(str, unknown))}")
    params = dict(_section(model_section, "params", dict,
                           f"{ctor_name}: params must be a mapping"))
    try:
        ctor = zoo.CATALOG[ctor_name][0]
    except KeyError:
        raise ScenarioError(f"unknown constructor {ctor_name!r}") from None
    if ctor_name == "torsion_rotate":
        base = params.pop("base", None)
        if base is None:
            raise ScenarioError("torsion_rotate needs a 'base' model block")
        params["model"] = build_model(base)
    try:
        return ctor(**params)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ScenarioError(f"{ctor_name}: {exc}") from exc


def _section(doc, key, kind, what):
    """``doc[key]``, or an empty ``kind`` when it is absent or null.  Any
    other value that is not a ``kind``, a falsy one too, is a
    ScenarioError ``what``."""
    value = doc.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ScenarioError(f"{what}, got {value!r}")
    return value


def _number(value, what, kind=float):
    """``value`` as a finite ``kind``, not a YAML boolean, else a
    ScenarioError naming it."""
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(x) or isinstance(value, bool) or \
            (isinstance(value, float) and x != value):
        raise ScenarioError(f"{what} must be a finite "
                            f"{'integer' if kind is int else 'number'}, got "
                            f"{value!r}")
    return x


def _value(doc, key, default):
    """``doc[key]``, or ``default`` when it is absent or null."""
    value = doc.get(key)
    return default if value is None else value


def build_tolerances(doc, tol=None):
    """The (pass, violation) gates of a scenario; ``tol`` overrides the
    pass gate, and the pair must satisfy 0 < pass < violation."""
    section = _section(doc, "tolerances", dict, "tolerances must be a mapping")
    tol_pass = _number(tol if tol is not None
                       else _value(section, "pass", TOL_PASS),
                       "tolerances.pass")
    tol_violation = _number(_value(section, "violation", TOL_VIOLATION),
                            "tolerances.violation")
    if not 0 < tol_pass < tol_violation:
        raise ScenarioError(f"tolerances need 0 < pass < violation, got pass "
                            f"{tol_pass:g} and violation {tol_violation:g}")
    return tol_pass, tol_violation


def build_sample_spec(doc, model, seed=None, points=None):
    seed = _number(seed if seed is not None else _value(doc, "seed", 0),
                   "seed", int)
    if seed < 0:
        raise ScenarioError(f"seed must not be negative, got {seed}")
    points = _number(points if points is not None
                     else _value(doc, "points", 20), "points", int)
    if points < 1:
        raise ScenarioError(f"points must be at least 1, got {points}")
    box_map = _section(doc, "box", dict,
                       "box must map coordinates to [lo, hi]")
    unknown = set(box_map) - set(model.coords)
    if unknown:
        raise ScenarioError(f"box keys {sorted(unknown)} are not coordinates "
                            f"of model {model.name} {list(model.coords)}")
    box = []
    for i, cname in enumerate(model.coords):
        if cname in box_map:
            value = box_map[cname]
            if not isinstance(value, list) or len(value) != 2:
                raise ScenarioError(f"box {cname}: need a list [lo, hi] of "
                                    f"two numbers, got {value!r}")
            lo, hi = (_number(v, f"box {cname}") for v in value)
            if lo >= hi:
                raise ScenarioError(f"box {cname}: need lo < hi, got "
                                    f"[{lo}, {hi}]")
            box.append((lo, hi))
        elif model.default_box:
            box.append(model.default_box[i])
        else:
            box.append((-1.0, 1.0))
    exclusions = list(model.default_exclusions)
    entries = _section(doc, "exclusions", list, "exclusions must be a list")
    for exc in entries:
        if not isinstance(exc, dict) or "expr" not in exc:
            raise ScenarioError(f"exclusion needs {{expr: ..., min: ...}}, "
                                f"got {exc!r}")
        try:
            expr = parse_expr(exc["expr"], model.coords)
        except ExprError as err:
            raise ScenarioError(f"exclusion {exc['expr']!r}: {err}") from None
        exclusions.append(Exclusion(expr, _number(_value(exc, "min", 0.1),
                                                  "exclusion min")))
    return SampleSpec(box=tuple(box), n_points=points, seed=seed,
                      exclusions=tuple(exclusions))


def _check_entry(chk):
    """(name, expect, params) of one check entry, validated against the
    check's signature."""
    if isinstance(chk, str):
        name, params = chk, {}
    elif isinstance(chk, dict) and isinstance(chk.get("name"), str):
        params = dict(chk)
        name = params.pop("name")
    else:
        raise ScenarioError(f"check entry must be a check name or a mapping "
                            f"with a 'name', got {chk!r}")
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
    if params.get("tol") is None:
        params.pop("tol", None)
    else:
        params["tol"] = _number(params["tol"], f"check {name!r}: tol")
        if params["tol"] <= 0:
            raise ScenarioError(f"check {name!r}: tol must be positive, got "
                                f"{params['tol']:g}")
    return name, expect, params


def run_checks(doc, model, spec, tols):
    checks = _value(doc, "checks", ["suite"])
    if not isinstance(checks, list) or not checks:
        raise ScenarioError(f"checks must be a list of at least one check, "
                            f"got {checks!r}")
    entries = [_check_entry(chk) for chk in checks]
    reports = []
    for name, expect, params in entries:
        try:
            reports.extend(verify.run_check(name, model, spec, tols, expect,
                                            **params))
        except KeyError as exc:
            raise ScenarioError(f"check {name!r} on model {model.name}: "
                                f"{exc.args[0]}") from None
        except EvaluationError as exc:
            raise ScenarioError(f"check {name!r}: {exc}") from exc
    return reports


def run_scenario(path, seed=None, points=None, tol=None, report_path=None):
    doc = load_scenario(path)
    report = _section(doc, "report", str, "report must be a path")
    tols = build_tolerances(doc, tol)
    model = build_model(doc["model"])
    spec = build_sample_spec(doc, model, seed=seed, points=points)
    reports = run_checks(doc, model, spec, tols)
    header = (f"scenario: {doc.get('name', path)} | model: {model.name} | "
              f"seed: {spec.seed} | points: {spec.n_points}")
    text = render_report(reports, header=header)
    out_path = report_path or report
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ScenarioError(f"{out_path}: cannot write report: "
                                f"{exc.strerror or exc}") from None
    return (0 if all(r.ok for r in reports) else 1), text


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
                tol=args.tol, report_path=args.report)
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
