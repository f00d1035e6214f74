"""Structured check results shared by the geometry and algebra suites.

Verdict policy: a relation expected to hold passes when its sampled
residual stays below tol_pass * (1 + scale); a negative control is
"violated-as-expected" only when the residual clears the much larger
tol_violation * (1 + scale).  Residuals in the gap between the two
thresholds are a gray zone and fail the run so they get investigated.
Exploratory relations only report their residual.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diffop import Residual, SampleSpec

TOL_PASS = 1e-9
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
    gate_pass = tol_pass * (1.0 + residual.scale)
    gate_violation = tol_violation * (1.0 + residual.scale)
    if expected == "pass":
        return (PASS if residual.max_abs <= gate_pass else FAIL), tol_pass
    if expected == "violated":
        if residual.max_abs >= gate_violation:
            return VIOLATED, tol_violation
        return FAIL, tol_violation
    if expected == "any":
        # negative controls: every relation must either hold cleanly or be
        # violated decisively; verify.run_check asserts at least one
        # violation per check
        if residual.max_abs <= gate_pass:
            return PASS, tol_pass
        if residual.max_abs >= gate_violation:
            return VIOLATED, tol_violation
        return FAIL, tol_pass
    raise ValueError(f"unknown expectation {expected!r}")


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
