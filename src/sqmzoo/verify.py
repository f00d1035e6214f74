"""Superalgebra checks as data, and the one function that evaluates them.

A check is a function ``(model, **params) -> list[Relation]``: it builds
the fields that a claimed relation says must vanish and labels them, but
samples nothing.  ``CHECKS`` maps each check name to its function;
``run_check`` evaluates a check's relations at the sample points of a
spec and turns each into a CheckReport; it is the only producer of
sampled verdicts.  Reports are deterministic given the sample spec.
Sign conventions frozen by flat-space computation (and asserted there by
the test suite):

* [F+, F-] = F0 - D/2,
* [S^a, F^b+] = delta^ab Qbar + eps^abc Sbar^c  (and the conjugate with
  psi <-> psibar), with the triple satisfying
  I^a I^b = -delta^ab + eps^abc I^c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import const_tensor
from .diffop import (DiffOp, EvaluationError, OpError, anticommutator,
                     commutator, compose, momentum_op, mult_op, naive_dagger,
                     sampled_residual, similarity, zero_op)
from .fields import fexpr, fidentity
from .geometry import quaternion_fields, structure_fields
from .report import (EXPECTATIONS, FAIL, TOL_PASS, TOL_VIOLATION, VIOLATED,
                     CheckReport, make_report)
from .zoo import mode_label

_EPS3 = const_tensor("epsilon3")
_SIGMA = const_tensor("sigma_pauli")


@dataclass(frozen=True)
class Relation:
    """A claimed identity: every field of ``fields`` must vanish.  An
    operator given as ``fields`` stands for its coefficient fields.
    ``expected`` is what the relation should do (see ``report.classify``);
    ``tol``, when set, tightens the pass tolerance for this relation
    only."""

    label: str
    fields: tuple
    expected: str = "pass"
    tol: float = None

    def __post_init__(self):
        fields = self.fields
        if isinstance(fields, DiffOp):
            fields = fields.terms.values()
        object.__setattr__(self, "fields", tuple(fields))


def _pair(m, name):
    """A complex supercharge's name, operator and conjugate."""
    return name, m.op(name), m.op(m.bar(name))


def _h_direct(m):
    """The independently built Hamiltonian when the model has one, so
    that {Qbar, Q} = 2H is not true by construction; else H."""
    return m.op("H_direct" if "H_direct" in m.ops else "H")


def check_n2(m):
    """Q^2 = Qbar^2 = 0 and {Qbar, Q} = 2H for the first supercharge pair.

    Gauge models expect the violated Q^2 and instead assert the operator
    identity Q^2 = A_- . G."""
    name, q, qb = _pair(m, m.charges[0])
    gauge = m.expected_algebra == "gauge"
    nilpotent = "violated" if gauge else "pass"
    h = _h_direct(m)
    out = [
        Relation(f"{name}^2", compose(q, q), nilpotent),
        Relation(f"{name}bar^2", compose(qb, qb), nilpotent),
        Relation(f"{{{name}bar,{name}}} - 2H",
                 anticommutator(qb, q) - 2.0 * h),
    ]
    if gauge:
        out.extend(_gauge_constraints(m))
    return out


def _gauge_constraints(m):
    """Constraint algebra of the gauge model: Q^2 = A_- . G,
    [G^a, H] = 0, [G^a, G^b] = i eps^abc G^c."""
    q = m.op(m.charges[0])
    g_ops = [m.op(f"G{a + 1}") for a in range(3)]
    rhs = zero_op(m.coords, m.rep)
    for a in range(3):
        rhs = rhs + compose(mult_op(m.meta["a_minus"][a], m.coords, m.rep),
                            g_ops[a])
    out = [Relation("Q^2 - A_-.G", compose(q, q) - rhs)]
    for a in range(3):
        out.append(Relation(f"[G{a + 1},H]",
                            commutator(g_ops[a], m.op("H"))))
    for a in range(3):
        for b in range(a + 1, 3):
            comm = commutator(g_ops[a], g_ops[b])
            for c in range(3):
                if _EPS3[a, b, c]:
                    comm = comm - (1j * _EPS3[a, b, c]) * g_ops[c]
            out.append(Relation(f"[G{a + 1},G{b + 1}] - i eps G", comm))
    return out


def check_extended(m):
    """All pairwise relations of the extended algebra:
    {Q_a, Q_b} = 0 and {Q_a, Qbar_b} = 2 delta_ab H."""
    out = []
    h = m.op("H")
    if m.rep.kind == "hermitian":
        for i, na in enumerate(m.charges):
            for nb in m.charges[i:]:
                lhs = anticommutator(m.op(na), m.op(nb))
                if na == nb:
                    lhs = lhs - 2.0 * h
                out.append(Relation(
                    f"{{{na},{nb}}}" + (" - 2H" if na == nb else ""), lhs))
        return out
    pairs = [_pair(m, name) for name in m.charges]
    for i, (na, qa, _qba) in enumerate(pairs):
        for j, (nb, qb, qbb) in enumerate(pairs):
            if j >= i:
                out.append(Relation(f"{{{na},{nb}}}", anticommutator(qa, qb)))
            lhs = anticommutator(qa, qbb)
            label = f"{{{na},{nb}bar}}"
            if i == j:
                lhs = lhs - 2.0 * h
                label += " - 2H"
            out.append(Relation(label, lhs))
    return out


def check_central(m):
    """Central-charge algebra {Q_a, Qbar_b} = 2(delta_ab H + sigma_j P_j),
    with the momenta commuting with the supercharges."""
    h = _h_direct(m)
    p_ops = [m.op("P1"), m.op("P2"), m.op("P3")]
    qs = [m.op("Q1"), m.op("Q2")]
    qbs = [m.op("Q1bar"), m.op("Q2bar")]
    out = []
    for a in range(2):
        for b in range(2):
            rhs = zero_op(m.coords, m.rep)
            if a == b:
                rhs = rhs + 2.0 * h
            for j in range(3):
                c = 2.0 * _SIGMA[j][a, b]
                if c:
                    rhs = rhs + c * p_ops[j]
            out.append(Relation(f"{{Q{a + 1},Qbar{b + 1}}} - 2(dH + sP)",
                                anticommutator(qs[a], qbs[b]) - rhs))
            if b >= a:
                out.append(Relation(f"{{Q{a + 1},Q{b + 1}}}",
                                    anticommutator(qs[a], qs[b])))
    for j in range(3):
        for a in range(2):
            out.append(Relation(f"[P{j + 1},Q{a + 1}]",
                                commutator(p_ops[j], qs[a])))
        out.append(Relation(f"[P{j + 1},H]", commutator(p_ops[j], h)))
    return out


def check_theorem1(m):
    """Kahler theorem: su(2) triplet of F's plus the four mixing brackets
    and the N=4 closure.

    [F+,F-] = F0 - D/2;  [S,F+] = Qbar;  [Q,F+] = -Sbar;
    [Qbar,F-] = -S;  [Sbar,F-] = Q;  [Q,F-] = [Qbar,F+] = 0."""
    q = m.op("Q")
    qb = m.op("Qbar")
    s = m.op("S")
    sb = m.op("Sbar")
    fp, fm, f0 = m.op("F+"), m.op("F-"), m.op("F0")
    dim_half = 0.5 * len(m.coords)
    shift = mult_op(fidentity(m.rep.dim, len(m.coords)), m.coords, m.rep)
    out = [
        Relation("[F+,F-] - (F0 - D/2)",
                 commutator(fp, fm) - (f0 - dim_half * shift)),
        Relation("[S,F+] - Qbar", commutator(s, fp) - qb),
        Relation("[Q,F+] + Sbar", commutator(q, fp) + sb),
        Relation("[Qbar,F-] + S", commutator(qb, fm) + s),
        Relation("[Sbar,F-] - Q", commutator(sb, fm) - q),
        Relation("[Q,F-]", commutator(q, fm)),
        Relation("[Qbar,F+]", commutator(qb, fp)),
    ]
    out.extend(check_extended(m))
    return out


def check_theorem2(m):
    """Hyper-Kahler theorem: N=8 closure plus all nine F-brackets,

    [S^a, F^b+] = delta^ab Qbar + eps^abc Sbar^c,
    [Sbar^a, F^b-] = delta^ab Q + eps^abc S^c,
    [S^a, F^b-] = [Sbar^a, F^b+] = 0.

    The eps sign is the one forced by the flat-space computation with
    the canonical triple; the conventions are pinned there."""
    q, qb = m.op("Q"), m.op("Qbar")
    ss = [m.op(f"S{a + 1}") for a in range(3)]
    sbs = [m.op(f"S{a + 1}bar") for a in range(3)]
    out = []
    for a in range(3):
        for b in range(3):
            fbp = m.op(f"F{b + 1}+")
            fbm = m.op(f"F{b + 1}-")
            rhs_p = zero_op(m.coords, m.rep)
            rhs_m = zero_op(m.coords, m.rep)
            if a == b:
                rhs_p = rhs_p + qb
                rhs_m = rhs_m + q
            for c in range(3):
                if _EPS3[a, b, c]:
                    rhs_p = rhs_p + _EPS3[a, b, c] * sbs[c]
                    rhs_m = rhs_m + _EPS3[a, b, c] * ss[c]
            out.append(Relation(f"[S{a + 1},F{b + 1}+] - rhs",
                                commutator(ss[a], fbp) - rhs_p))
            out.append(Relation(f"[Sbar{a + 1},F{b + 1}-] - rhs",
                                commutator(sbs[a], fbm) - rhs_m))
            out.append(Relation(f"[S{a + 1},F{b + 1}-]",
                                commutator(ss[a], fbm)))
            out.append(Relation(f"[Sbar{a + 1},F{b + 1}+]",
                                commutator(sbs[a], fbp)))
    out.extend(check_extended(m))
    return out


def check_instanton(m):
    """su(2) invariance of the self-dual model: the generators commute
    with the supercharges and close as [L^a, L^b] = 2i eps^abc L^c (the
    factor 2 is the normalisation the color term 2t^a carries)."""
    l_ops = [m.op(f"L{a + 1}") for a in range(3)]
    out = []
    for a in range(3):
        for alpha in (1, 2):
            out.append(Relation(f"[L{a + 1},Q{alpha}]",
                                commutator(l_ops[a], m.op(f"Q{alpha}"))))
        out.append(Relation(f"[L{a + 1},H]",
                            commutator(l_ops[a], m.op("H"))))
    for a in range(3):
        for b in range(a + 1, 3):
            comm = commutator(l_ops[a], l_ops[b])
            for c in range(3):
                if _EPS3[a, b, c]:
                    comm = comm - (2j * _EPS3[a, b, c]) * l_ops[c]
            out.append(Relation(f"[L{a + 1},L{b + 1}] - 2i eps L", comm))
    return out


def check_exploratory(m):
    """Report-only residuals for the gauge-fixed model: nilpotency and
    the cyclicity of alpha in the Hamiltonian are printed, not asserted."""
    name, q, qb = _pair(m, m.charges[0])
    p_al = momentum_op(m.coords, m.rep, "alpha")
    return [
        Relation(f"{name}^2 (exploratory)", compose(q, q), "exploratory"),
        Relation(f"{name}bar^2 (exploratory)", compose(qb, qb),
                 "exploratory"),
        Relation("[p_alpha, H] (exploratory)",
                 commutator(p_al, m.op("H")), "exploratory"),
    ]


def check_wz_similarity(m):
    """Mode-sum supercharge: nilpotency, the per-mode closure, and the
    similarity relation Qcal = e^W Qcal0 e^-W."""
    qcal = m.op("Qcal")
    h = m.op("H_direct")
    out = [
        Relation("Qcal^2", compose(qcal, qcal)),
        Relation("{Qcal,Qcalbar} - 2H",
                 anticommutator(qcal, naive_dagger(qcal)) - 2.0 * h),
    ]
    for mvec in m.meta["modes"]:
        label = mode_label(mvec)
        qn = m.op(f"Qcal_{label}")
        hn = m.op(f"H_{label}")
        out.append(Relation(f"{{Qcal_{label}, bar}} - 2H_{label}",
                            anticommutator(qn, naive_dagger(qn)) - 2.0 * hn))
    wf = fexpr(m.meta["superpotential"], len(m.coords), "W")
    q_sim = similarity(m.op("Qcal0"), wf)
    out.append(Relation("Qcal - e^W Qcal0 e^-W", qcal - q_sim, tol=1e-10))
    return out


def check_structure(m):
    """The hypotheses of Theorems 1 and 2 for each complex structure of
    the model: I^2 = -1, I_MN antisymmetric and I covariantly constant,
    and the quaternion algebra of a triple."""
    structures = m.meta.get("structures")
    if not structures:
        raise KeyError(f"model {m.name} has no complex structure")
    out = []
    for I in structures:
        tag = f"I{I.label}" if I.label else "I"
        square, asym, cov = structure_fields(I, m.meta["geometry"])
        out += [Relation(f"{tag}^2 = -1", square),
                Relation(f"{tag}_MN antisymmetric", asym),
                Relation(f"cov-const {tag}", cov)]
    if len(structures) == 3:
        out.append(Relation("quaternion algebra",
                            quaternion_fields(structures)))
    return out


def check_equal(m, a, b, tol=None):
    """Operator comparison: the named operators a and b coincide."""
    return [Relation(f"{a} == {b}", m.op(a) - m.op(b),
                     tol=None if tol is None else float(tol))]


# the checks each declared algebra runs by default, in report order
SUITE_CHECKS = {
    "N2": ("n2",),
    "N4": ("n2", "extended"),
    "N8": ("n2", "extended"),
    "N8-hermitian": ("extended",),
    "central": ("central", "wz_similarity"),
    "gauge": ("n2",),
    "exploratory": ("exploratory",),
}


def check_suite(m):
    """The default relations for the model's declared algebra."""
    return [rel for name in SUITE_CHECKS[m.expected_algebra]
            for rel in CHECKS[name](m)]


CHECKS = {
    "suite": check_suite,
    "n2": check_n2,
    "extended": check_extended,
    "central": check_central,
    "theorem1": check_theorem1,
    "theorem2": check_theorem2,
    "instanton_su2": check_instanton,
    "exploratory": check_exploratory,
    "wz_similarity": check_wz_similarity,
    "structure": check_structure,
    "equal": check_equal,
}


def run_check(name, model, spec, tols=(TOL_PASS, TOL_VIOLATION), expect=None,
              **params):
    """Evaluate the relations of check ``name`` at the points of ``spec``.

    All relations go through one ``sampled_residual`` pass: they are
    compiled into one tape, run once per block of sample points, so an
    operator that several relations contain is evaluated once per block,
    and each relation's scale is still taken over its own DAG only.

    ``tols`` is the (pass, violation) tolerance pair; a relation's own
    ``tol`` can only tighten the pass tolerance.  ``expect``, when given,
    replaces the expectation of every relation expected to pass; the
    built-in violated and exploratory expectations stay.  With
    ``expect="any"`` at least one relation must come out violated, else
    a failing record ``<name>: no relation violated`` is appended.

    An EvaluationError from the sampled pass leaves with the label of
    the relation that raised it; a sample box that does not match the
    model's coordinates raises OpError.
    """
    if expect is not None and expect not in EXPECTATIONS:
        raise ValueError(f"unknown expectation {expect!r}")
    if len(spec.box) != len(model.coords):
        raise OpError("sample box does not match the model's coordinates")
    tol_pass, tol_violation = tols
    relations = CHECKS[name](model, **params)
    try:
        residuals = sampled_residual([rel.fields for rel in relations], spec)
    except EvaluationError as exc:
        exc.relation = relations[exc.group].label
        raise
    reports = []
    for rel, res in zip(relations, residuals):
        expected = (expect if expect is not None and rel.expected == "pass"
                    else rel.expected)
        tol = tol_pass if rel.tol is None else min(tol_pass, rel.tol)
        reports.append(make_report(rel.label, res, spec, expected, tol,
                                   tol_violation))
    if expect == "any" and not any(r.verdict == VIOLATED for r in reports):
        worst = max((r.residual for r in reports),
                    key=lambda res: res.relative)
        reports.append(CheckReport(f"{name}: no relation violated", worst,
                                   tol_violation, FAIL, spec))
    return reports
