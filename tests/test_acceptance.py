"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Defaults: 20 seeded sample points, pass tolerance 1e-9 * (1 +
scale), violation threshold 1e-3 * (1 + scale).
"""

import itertools
from pathlib import Path

import numpy as np
import yaml

from sqmzoo import verify, zoo
from sqmzoo.clifford import const_tensor
from sqmzoo.diffop import anticommutator, compose, is_zero, similarity
from sqmzoo.expr import parse
from sqmzoo.fields import evaluate, fexpr
from sqmzoo.jets import jet_space
from sqmzoo.report import VIOLATED
from sqmzoo.cli import run_scenario

N_POINTS = 20
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

_RESULTS = []


def _line(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    msg = f"ACCEPTANCE {num:02d} [{status}] {label}" + (f" | {detail}" if detail else "")
    print(msg)
    _RESULTS.append(msg)
    assert ok, msg


def _zero(op, spec, tol=1e-9):
    flag, res = is_zero(op, spec, tol)
    return flag, res


def test_criterion_01_witten():
    m = zoo.witten("x^3 - x")
    spec = m.sample_spec(n_points=N_POINTS, seed=101)
    ok = True
    worst = 0.0
    for lhs in (compose(m.op("Q"), m.op("Q")),
                compose(m.op("Qbar"), m.op("Qbar")),
                anticommutator(m.op("Qbar"), m.op("Q")) - 2.0 * m.op("H_direct")):
        f, r = _zero(lhs, spec)
        ok &= f
        worst = max(worst, r.max_abs)
    f, r = _zero(m.op("Q") - m.op("Q_similarity"), spec, tol=1e-10)
    ok &= f and r.max_abs < 1e-10
    _line(1, "witten W=x^3-x: N=2 and similarity == direct", ok,
          f"worst residual {max(worst, r.max_abs):.2e}")


def test_criterion_02_free_complex_n4():
    m = zoo.free_complex(2)
    spec = m.sample_spec(n_points=N_POINTS, seed=102)
    reports = (verify.run_check("n2", m, spec)
               + verify.run_check("extended", m, spec))
    ok = all(r.verdict == "pass" for r in reports)
    _line(2, "free flat complex d=2: N=2 and N=4 closure with the S-pair", ok,
          f"{len(reports)} relations")


def test_criterion_03_dolbeault_twist():
    omega = [["0.2*sin(x1)", "0.1*(x2 + y1)"],
             ["0.1*x1*y2", "0.15*(x2^2 - y2)"]]
    plain = zoo.dolbeault(omega, d=2)
    spec = plain.sample_spec(n_points=N_POINTS, seed=103)
    ok = all(r.verdict == "pass"
             for r in verify.run_check("n2", plain, spec))
    twisted = zoo.dolbeault(omega, d=2, W="0.3*x1*y1 + 0.1*x2^3")
    ok &= all(r.verdict == "pass"
              for r in verify.run_check("n2", twisted, spec))
    _line(3, "dolbeault d=2 nondiagonal: N=2 with det-h adjoint, twist keeps N=2",
          ok)


def test_criterion_04_de_rham_identification():
    ok = True
    detail = []
    for D in (2, 4):
        if D == 2:
            omega = [["0.3*sin(x1)", "0.1*x1*x2"], ["0.1*x1*x2", "0.2*x2^2"]]
        else:
            omega = [["0.2*sin(x1)", "0.05*x1*x2", "0.05*x1*x3", "0.05*x1*x4"],
                     ["0.05*x1*x2", "0.2*x2^2", "0.05*x2*x3", "0.05*x2*x4"],
                     ["0.05*x1*x3", "0.05*x2*x3", "0.1*x3", "0.05*x3*x4"],
                     ["0.05*x1*x4", "0.05*x2*x4", "0.05*x3*x4", "0.15*x4^2"]]
        m = zoo.de_rham(omega, D=D)
        spec = m.sample_spec(n_points=N_POINTS if D == 2 else 8, seed=104)
        f1, r1 = _zero(m.op("Q") - m.op("Q_geometric"), spec)
        f2, r2 = _zero(m.op("Qbar") - m.op("Qbar_geometric"), spec)
        n2_ok = all(r.verdict == "pass"
                    for r in verify.run_check("n2", m, spec))
        ok &= f1 and f2 and n2_ok and r1.max_abs < 1e-9 * (1 + r1.scale)
        detail.append(f"D={D}: {max(r1.max_abs, r2.max_abs):.2e}")
    _line(4, "de Rham D=2,4: similarity == spin connection, N=2 with sqrt(det g)",
          ok, "; ".join(detail))


def test_criterion_05_rhombus():
    om = [["0.3*sin(x1)", "0.15*i"], ["-0.15*i", "0.2*x2^2"]]
    m = zoo.quasicomplex(om, D=2)
    spec = m.sample_spec(n_points=N_POINTS, seed=105)
    f, r = _zero(m.op("Q") - m.op("Q_reduced"), spec)
    _line(5, "rhombus: reduce(similarity(free)) == similarity(reduce(free))",
          f and r.max_abs < 1e-9 * (1 + r.scale), f"residual {r.max_abs:.2e}")


def test_criterion_06_theorem1():
    m = zoo.kahler_warped()
    spec = m.sample_spec(n_points=N_POINTS, seed=106)
    good = verify.run_check("theorem1", m, spec)
    ok = all(r.verdict == "pass" for r in good)
    bad = zoo.kahler_warped(u="0.3*sin(x1) + 0.2*x3^2")
    spec_b = bad.sample_spec(n_points=N_POINTS, seed=106)
    fb, rb = _zero(anticommutator(bad.op("Q"), bad.op("Sbar")), spec_b)
    violated = (not fb) and rb.max_abs >= 1e-3 * (1 + rb.scale)
    reports_b = verify.run_check("theorem1", bad, spec_b, expect="any")
    ok &= violated and any(r.verdict == VIOLATED for r in reports_b) \
        and all(r.ok for r in reports_b)
    _line(6, "theorem 1: warped Kahler passes, non-Kahler deformation violated",
          ok, f"control residual {rb.max_abs:.2e}")


def test_criterion_07_theorem2():
    flat = zoo.hyperkahler_flat()
    spec_f = flat.sample_spec(n_points=6, seed=107)
    ok = all(r.verdict == "pass"
             for r in verify.run_check("theorem2", flat, spec_f))
    m = zoo.hyperkahler_gibbons_hawking()
    spec = m.sample_spec(n_points=N_POINTS, seed=107)
    hypotheses = verify.run_check("structure", m, spec)
    ok &= len(hypotheses) == 10
    ok &= hypotheses[-1].name == "quaternion algebra"
    ok &= all(r.verdict == "pass" for r in hypotheses)
    reports = verify.run_check("theorem2", m, spec)
    ok &= all(r.verdict == "pass" for r in reports)
    _line(7, "theorem 2: Gibbons-Hawking quaternion + covariant constancy + N=8",
          ok, f"{len(reports)} algebra relations")


def test_criterion_08_hkt():
    m = zoo.hkt_conformal("0.1*(x1^2 + x2^2 + y1^2 + y2^2)")
    spec = m.sample_spec(n_points=N_POINTS, seed=108)
    reports = (verify.run_check("n2", m, spec)
               + verify.run_check("extended", m, spec))
    ok = all(r.verdict == "pass" for r in reports)
    f1, r1 = _zero(m.op("Q") - m.op("Q_direct"), spec, tol=1e-10)
    f2, r2 = _zero(m.op("S") - m.op("S_direct"), spec, tol=1e-10)
    ok &= f1 and f2 and max(r1.max_abs, r2.max_abs) < 1e-10
    _line(8, "HKT conformally flat: N=4, direct == similarity to 1e-10", ok,
          f"construction residual {max(r1.max_abs, r2.max_abs):.2e}")


def test_criterion_09_okt():
    m = zoo.okt_flat()
    spec = m.sample_spec(n_points=6, seed=109)
    reports = verify.run_check("extended", m, spec)
    ok = all(r.verdict == "pass" for r in reports) and len(reports) == 36
    gam = const_tensor("gamma7")
    eps3 = const_tensor("epsilon3")
    overall = np.inf
    for trio_idx in itertools.combinations(range(7), 3):
        best = np.inf
        for signs in itertools.product((1, -1), repeat=3):
            tri = [signs[i] * gam[trio_idx[i]] for i in range(3)]
            resid = 0.0
            for a in range(3):
                for b in range(3):
                    mm = tri[a] @ tri[b] + (1.0 if a == b else 0.0) * np.eye(8)
                    for c in range(3):
                        mm = mm - eps3[a, b, c] * tri[c]
                    resid = max(resid, float(np.abs(mm).max()))
            best = min(best, resid)
        overall = min(overall, best)
    ok &= overall >= 0.5
    _line(9, "OKT flat: 36 anticommutators close, no quaternionic Gamma triple",
          ok, f"triple floor {overall:.2f}")


def test_criterion_10_instanton():
    m = zoo.instanton(rho=1.0)
    spec = m.sample_spec(n_points=N_POINTS, seed=110)
    reports = (verify.run_check("n2", m, spec)
               + verify.run_check("extended", m, spec)
               + verify.run_check("instanton_su2", m, spec))
    ok = all(r.verdict == "pass" for r in reports)
    _line(10, "instanton rho=1: N=4, [L,Q]=0, su(2) closure", ok,
          f"{len(reports)} relations")


def test_criterion_11_gauge_sym3():
    m = zoo.gauge_sym3()
    spec = m.sample_spec(n_points=N_POINTS, seed=111)
    reports = verify.run_check("suite", m, spec)
    by_name = {r.name: r for r in reports}
    ok = all(r.ok for r in reports)
    ok &= by_name["Q^2"].verdict == "violated-as-expected"
    ok &= by_name["Q^2 - A_-.G"].verdict == "pass"
    _line(11, "gauge SYM3: Q^2 = A_-.G exactly, [G,H]=0, su(2) of G", ok,
          f"Q^2-A.G residual {by_name['Q^2 - A_-.G'].residual.max_abs:.2e}")


def test_criterion_12_wz_modes():
    m = zoo.wz_modes([(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    spec = m.sample_spec(n_points=8, seed=112)
    reports = (verify.run_check("central", m, spec)
               + verify.run_check("wz_similarity", m, spec))
    ok = all(r.verdict == "pass" for r in reports)
    wf = fexpr(m.meta["superpotential"], len(m.coords), "W")
    f, r = _zero(m.op("Qcal") - similarity(m.op("Qcal0"), wf), spec, tol=1e-10)
    ok &= f and r.max_abs < 1e-10
    _line(12, "WZ 3 modes: central algebra, per-mode closure, e^W similarity",
          ok, f"similarity residual {r.max_abs:.2e}")


def _collect_param_exprs(params):
    out = []
    for v in params.values():
        if isinstance(v, str):
            out.append(v)
        elif isinstance(v, list) and v and isinstance(v[0], list) \
                and v and isinstance(v[0][0], str):
            out.extend(x for row in v for x in row)
        elif isinstance(v, dict):
            out.extend(_collect_param_exprs(v))
    return out


def test_criterion_13_fd_oracle():
    """Autodiff first/second partials vs central finite differences (step
    1e-5, relative 1e-6) for every shipped scenario's fields."""
    step = 1e-5
    checked = 0
    worst = 0.0
    for path in sorted(SCENARIOS.glob("*.yaml")):
        doc = yaml.safe_load(path.read_text())
        from sqmzoo.cli import build_model
        model = build_model(doc["model"])
        n = len(model.coords)
        rng = np.random.default_rng(113)
        if model.default_box:
            lo = np.array([b[0] for b in model.default_box])
            hi = np.array([b[1] for b in model.default_box])
        else:
            lo, hi = -np.ones(n), np.ones(n)
        texts = _collect_param_exprs(doc["model"].get("params") or {})
        fields = []
        for t in texts:
            try:
                fields.append(fexpr(parse(t, model.coords), n))
            except Exception:
                continue
        if not fields:
            # fall back to the supercharge coefficient fields
            q = model.op(model.charges[0])
            fields = list(q.terms.values())[:4]
        pts = [tuple(rng.uniform(lo, hi)) for _ in range(3)]
        if model.default_exclusions:
            pts = [p for p in pts
                   if not any(e.excluded(p) for e in model.default_exclusions)]
        space = jet_space(n, 2)
        for f in fields:
            for p in pts:
                jet = evaluate(f, p, order=2)
                for i in range(n):
                    unit = tuple(1 if k == i else 0 for k in range(n))
                    pp, pm = list(p), list(p)
                    pp[i] += step
                    pm[i] -= step
                    fd = (evaluate(f, tuple(pp))[:, :, 0]
                          - evaluate(f, tuple(pm))[:, :, 0]) / (2 * step)
                    exact = jet[:, :, space.index[unit]]
                    scale = max(1.0, float(np.abs(exact).max()))
                    err = float(np.abs(exact - fd).max()) / scale
                    worst = max(worst, err)
                    checked += 1
                for i in range(n):
                    for j in range(i, n):
                        idx = tuple((1 if k == i else 0) + (1 if k == j else 0)
                                    for k in range(n))
                        acc = 0
                        if i == j:
                            pp, pm = list(p), list(p)
                            pp[i] += step
                            pm[i] -= step
                            acc = (evaluate(f, tuple(pp))[:, :, 0]
                                   - 2 * evaluate(f, p)[:, :, 0]
                                   + evaluate(f, tuple(pm))[:, :, 0]) / step ** 2
                        else:
                            for si in (1, -1):
                                for sj in (1, -1):
                                    q2 = list(p)
                                    q2[i] += si * step
                                    q2[j] += sj * step
                                    acc = acc + si * sj * evaluate(
                                        f, tuple(q2))[:, :, 0]
                            acc = acc / (4 * step ** 2)
                        exact = jet[:, :, space.index[idx]]
                        scale = max(1.0, float(np.abs(exact).max()))
                        # second-order FD carries ~1e-7 truncation noise
                        err = float(np.abs(exact - acc).max()) / scale
                        assert err < 2e-4, (path.stem, p, i, j, err)
    ok = worst < 1e-6
    _line(13, "finite-difference oracle over every scenario's fields", ok,
          f"{checked} first-derivative checks, worst {worst:.2e}")


def test_criterion_14_determinism(tmp_path):
    ok = True
    for name in ("witten.yaml", "wz_modes.yaml"):
        p1 = tmp_path / (name + ".1")
        p2 = tmp_path / (name + ".2")
        c1, t1 = run_scenario(str(SCENARIOS / name), report_path=str(p1))
        c2, t2 = run_scenario(str(SCENARIOS / name), report_path=str(p2))
        ok &= (c1 == c2 == 0) and p1.read_bytes() == p2.read_bytes()
    _line(14, "determinism: byte-identical reports under fixed seed", ok)
