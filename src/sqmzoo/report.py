"""Structured check results; ``verify.run_check`` is the one producer.

Verdict policy: a relation expected to hold passes when its sampled
residual's ``relative`` (max_abs / (1 + scale)) is at most tol_pass; a
negative control is "violated-as-expected" only when ``relative``
reaches the much larger tol_violation.  Residuals in the gap between
the two thresholds are a gray zone and fail the run so they get
investigated.  Exploratory relations only report their residual.  A
residual or scale that is NaN or infinite fails every other
expectation: no gate computed from it means anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diffop import TOL_PASS, Residual, SampleSpec

TOL_VIOLATION = 1e-3

PASS = "pass"
FAIL = "fail"
VIOLATED = "violated-as-expected"
EXPLORATORY = "exploratory"

# what a relation may be expected to do; see classify
EXPECTATIONS = ("pass", "violated", "any", "exploratory")


@dataclass(frozen=True)
class CheckReport:
    name: str
    residual: Residual
    tol: float
    verdict: str
    samples: SampleSpec

    @property
    def ok(self):
        return self.verdict in (PASS, VIOLATED, EXPLORATORY)

    def line(self):
        pt = ",".join(f"{x:.6g}" for x in (self.residual.argmax_point or ()))
        return (f"relation: {self.name} | residual: {self.residual.max_abs:.6e} | "
                f"scale: {self.residual.scale:.6e} | tol: {self.tol:.1e} | "
                f"point: ({pt}) | verdict: {self.verdict}")


def classify(residual, expected="pass", tol_pass=TOL_PASS,
             tol_violation=TOL_VIOLATION):
    """Verdict for a residual given what the relation is expected to do."""
    if expected == "exploratory":
        return EXPLORATORY, tol_pass
    if expected not in EXPECTATIONS:
        raise ValueError(f"unknown expectation {expected!r}")
    rel = residual.relative
    if rel == math.inf:
        return FAIL, (tol_violation if expected == "violated" else tol_pass)
    if expected == "pass":
        return (PASS if rel <= tol_pass else FAIL), tol_pass
    if expected == "violated":
        if rel >= tol_violation:
            return VIOLATED, tol_violation
        return FAIL, tol_violation
    # "any", for negative controls: every relation must either hold
    # cleanly or be violated decisively; verify.run_check asserts at least
    # one violation per check
    if rel <= tol_pass:
        return PASS, tol_pass
    if rel >= tol_violation:
        return VIOLATED, tol_violation
    return FAIL, tol_pass


def make_report(name, residual, samples, expected="pass", tol_pass=TOL_PASS,
                tol_violation=TOL_VIOLATION):
    verdict, tol = classify(residual, expected, tol_pass, tol_violation)
    return CheckReport(name, residual, tol, verdict, samples)


def render_report(reports, header=None):
    """Stable plain-text serialization, one record per relation."""
    lines = []
    if header:
        lines.append(header)
    lines.extend(r.line() for r in reports)
    n_bad = sum(0 if r.ok else 1 for r in reports)
    lines.append(f"checks: {len(reports)} | failures: {n_bad}")
    return "\n".join(lines) + "\n"


def all_ok(reports):
    return all(r.ok for r in reports)
