"""Model constructors: every model is reached from free flat complex
dynamics by similarity transformations and cyclic reductions, and each
records the recipe that produced it.

Conventions fixed here once and pinned by the flat acceptance tests:

* complex coordinates are stored as real pairs, coordinate list
  x1..xd, y1..yd, with pi_a = (p_x^(a) + i p_y^(a)) / sqrt(2), so the
  flat complex supercharge is Q = sqrt(2) psi_a pi_a,
* supercharge conjugates are measure-weighted adjoints,
  Qbar = mu^-1 Q^+ mu, with mu declared per model (None = flat),
* a model's hamiltonian is the supercharge-trace average
  (1/N) sum_i {Qbar_i, Q_i} / 2, which for every non-central model is
  just {Qbar_1, Q_1}/2 and for the central-charge model removes the
  momentum term,
* complex structures enter as mixed-index matrices I_M^N with the
  rotated extra supercharge S = psi^M I_M^N (p_N - i Omega_N,AB psi_A
  psibar_B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import geometry
from .clifford import bilinear, complex_fermions, const_tensor, hermitian_fermions, linear
from .diffop import (DiffOp, Exclusion, SampleSpec, adjoint_with_measure,
                     anticommutator, compose, momentum_op, mult_op,
                     naive_dagger, reduce_cyclic, rename_coords,
                     sampled_residual, similarity, unit_index, zero_op)
from .expr import Const, Coord, parse
from .fields import (ScalarFnField, ZeroField, fconst, fconj_t, fderiv, fdet,
                     fdiag, fentry, fexp, fexpr, fgrid, fidentity, flog,
                     fmatmul, fscale, fscalarmul, fsum, ftranspose)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Model:
    """A constructed model: named operators plus the construction trace."""

    name: str
    coords: tuple
    rep: object
    supercharges: tuple          # ((name, Q, Qbar), ...)
    hamiltonian: DiffOp
    measure: object = None       # scalar field mu, or None for flat
    hermitian_charges: tuple = ()
    constraints: dict = dc_field(default_factory=dict)
    extra: dict = dc_field(default_factory=dict)
    expected_algebra: str = "N2"
    recipe: tuple = ()
    default_box: tuple = ()
    default_exclusions: tuple = ()
    meta: dict = dc_field(default_factory=dict)

    def sample_spec(self, n_points=20, seed=0, box=None, exclusions=None):
        box = tuple(box) if box is not None else self.default_box
        excl = tuple(exclusions) if exclusions is not None else self.default_exclusions
        return SampleSpec(box=box, n_points=n_points, seed=seed, exclusions=excl)

    def op(self, name):
        """Look up any named operator of the model."""
        for cname, q, qb in self.supercharges:
            if name == cname:
                return q
            if name == cname + "bar":
                return qb
        for cname, q in self.hermitian_charges:
            if name == cname:
                return q
        if name == "H":
            return self.hamiltonian
        if name in self.constraints:
            return self.constraints[name]
        if name in self.extra:
            return self.extra[name]
        raise KeyError(f"model {self.name} has no operator {name!r}")

    def operator_names(self):
        names = []
        for cname, _q, _qb in self.supercharges:
            names.extend([cname, cname + "bar"])
        names.extend(n for n, _ in self.hermitian_charges)
        names.append("H")
        names.extend(self.constraints)
        names.extend(self.extra)
        return names


def _conjugate(Q, mu):
    return adjoint_with_measure(Q, mu) if mu is not None else naive_dagger(Q)


def _avg_hamiltonian(pairs, mu):
    """Mean of {Qbar_i, Q_i}/2 over the listed supercharge pairs."""
    acc = None
    for _name, q, qb in pairs:
        h = 0.5 * anticommutator(qb, q)
        acc = h if acc is None else acc + h
    return (1.0 / len(pairs)) * acc


def _expr(w, coords):
    if isinstance(w, str):
        return parse(w, coords)
    if isinstance(w, (int, float, complex)):
        return Const(w)
    return w


def _matrix_field(entries, coords):
    """Grid field from a nested list of Expr/str/number entries."""
    n = len(coords)
    rows = []
    for row in entries:
        rows.append([fexpr(_expr(e, coords), n) if not isinstance(e, ZeroField)
                     else e for e in row])
    return fgrid(rows)


# ---------------------------------------------------------------------------
# flat models


def _complex_coords(d):
    return tuple([f"x{a + 1}" for a in range(d)] + [f"y{a + 1}" for a in range(d)])


def free_complex_charge(coords, rep, d):
    """Q = sqrt(2) psi_a pi_a = psi_a (-i d_x_a + d_y_a)."""
    n = len(coords)
    terms = {}
    for a in range(d):
        psi = fconst(rep.psi[a], n, f"psi{a + 1}")
        terms[unit_index(n, a)] = fscale(-1j, psi)
        terms[unit_index(n, d + a)] = psi
    return DiffOp(coords, rep, terms)


def free_complex_s_charge(coords, rep, d):
    """Extra flat pair S = sqrt(2) eps_ab psi_a^k pibar_b^k (even d)."""
    if d % 2:
        raise ValueError("the flat S-pair needs even complex dimension")
    n = len(coords)
    eps = const_tensor("epsilon")
    terms = {}
    for k in range(d // 2):
        for a in range(2):
            for b in range(2):
                if not eps[a, b]:
                    continue
                ia, ib = 2 * k + a, 2 * k + b
                psi = fconst(eps[a, b] * rep.psi[ia], n)
                # sqrt(2) pibar_b = -i d_x_b - d_y_b
                _acc(terms, unit_index(n, ib), fscale(-1j, psi))
                _acc(terms, unit_index(n, d + ib), fscale(-1.0, psi))
    return DiffOp(coords, rep, terms)


def _acc(terms, idx, f):
    if idx in terms:
        terms[idx] = fsum([terms[idx], f])
    else:
        terms[idx] = f


def free_complex(d=1):
    """Free dynamics in flat complex space: Q = sqrt(2) psi_a pi_a."""
    coords = _complex_coords(d)
    rep = complex_fermions(d)
    Q = free_complex_charge(coords, rep, d)
    Qbar = naive_dagger(Q)
    pairs = [("Q", Q, Qbar)]
    if d % 2 == 0:
        S = free_complex_s_charge(coords, rep, d)
        pairs.append(("S", S, naive_dagger(S)))
    ham = _avg_hamiltonian(pairs[:1], None)
    return Model(
        name=f"free_complex(d={d})", coords=coords, rep=rep,
        supercharges=tuple(pairs), hamiltonian=ham, measure=None,
        expected_algebra="N4" if d % 2 == 0 else "N2",
        recipe=(f"free_complex(d={d})",),
        default_box=((-1.0, 1.0),) * (2 * d),
        meta={"ctor": ("free_complex", {"d": d})})


def free_real_charge(coords, rep):
    """Q = p_A psi_A."""
    n = len(coords)
    return DiffOp(coords, rep, {
        unit_index(n, a): fscale(-1j, fconst(rep.psi[a], n, f"psi{a + 1}"))
        for a in range(n)})


def free_real(D=1):
    """Free flat real dynamics, the cyclic reduction of free_complex(D)."""
    coords = tuple(f"x{a + 1}" for a in range(D))
    rep = complex_fermions(D)
    Q = free_real_charge(coords, rep)
    Qbar = naive_dagger(Q)
    ham = 0.5 * anticommutator(Qbar, Q)
    return Model(
        name=f"free_real(D={D})", coords=coords, rep=rep,
        supercharges=(("Q", Q, Qbar),), hamiltonian=ham, measure=None,
        expected_algebra="N2",
        recipe=(f"free_complex(d={D})", "reduce_cyclic(drop all y)"),
        default_box=((-1.0, 1.0),) * D,
        meta={"ctor": ("free_real", {"D": D})})


def witten(W="x^3 - x"):
    """One-dimensional model with superpotential W: Q = psi (p + i W')."""
    coords = ("x",)
    rep = complex_fermions(1)
    w_expr = _expr(W, coords)
    wf = fexpr(w_expr, 1, "W")
    n = 1
    psi = fconst(rep.psi[0], n, "psi")
    psibar = fconst(rep.psibar[0], n, "psibar")
    wp = fderiv(wf, (1,))
    wpp = fderiv(wf, (2,))
    Q = DiffOp(coords, rep, {
        (1,): fscale(-1j, psi),
        (0,): fscalarmul(fscale(1j, wp), psi)})
    Qbar = DiffOp(coords, rep, {
        (1,): fscale(-1j, psibar),
        (0,): fscalarmul(fscale(-1j, wp), psibar)})
    ham = 0.5 * anticommutator(Qbar, Q)

    # the same Q through the engine's own two operations
    parent = free_complex(1)
    q_red = rename_coords(
        reduce_cyclic(parent.op("Q"), ["y1"],
                      SampleSpec(box=((-1, 1), (-1, 1)), n_points=4, seed=1)),
        coords)
    q_sim = similarity(q_red, wf)

    # H = (p^2 + W'^2 + W'' (psibar psi - psi psibar)) / 2
    comm = rep.psibar[0] @ rep.psi[0] - rep.psi[0] @ rep.psibar[0]
    h_direct = DiffOp(coords, rep, {
        (2,): fscale(-0.5, fidentity(rep.dim, n)),
        (0,): fsum([fscalarmul(fscale(0.5, fmatmul(wp, wp)), fidentity(rep.dim, n)),
                    fscalarmul(fscale(0.5, wpp), fconst(comm, n))]),
    })
    return Model(
        name="witten", coords=coords, rep=rep,
        supercharges=(("Q", Q, Qbar),), hamiltonian=ham, measure=None,
        extra={"Q_similarity": q_sim, "H_direct": h_direct},
        expected_algebra="N2",
        recipe=("free_complex(d=1)", "reduce_cyclic(drop y1)",
                "similarity(exp(W))"),
        default_box=((-1.5, 1.5),),
        meta={"ctor": ("witten", {"W": W})})


# ---------------------------------------------------------------------------
# sigma models


def dolbeault(omega, d, W=None):
    """Complex sigma model: Q = e^R Q_free e^-R with R = omega_ab psi_a psibar_b.

    Qbar is the adjoint with the Hermitian-metric measure mu = det h,
    h = e^{omega^+} e^omega.  An optional scalar twist W applies the
    further similarity with exp(W - ln(det h)/4).
    """
    coords = _complex_coords(d)
    rep = complex_fermions(d)
    n = len(coords)
    om = omega if hasattr(omega, "eval_jet") else _matrix_field(omega, coords)
    if om.shape != (d, d):
        raise ValueError("omega must be d x d")
    parent = free_complex(d)
    r_op = bilinear(rep, om, "pb")
    Q = similarity(parent.op("Q"), r_op)
    geo = geometry.from_omega(om, "complex_dolbeault")
    mu = fdet(geo.hermitian_metric)
    recipe = [f"free_complex(d={d})", "similarity(exp(omega psi psibar))"]
    extra = {}
    if W is not None:
        w_expr = _expr(W, coords)
        g_field = fsum([fexpr(w_expr, n, "W"),
                        fscale(-0.25, flog(mu))], (1, 1), n)
        Q = similarity(Q, g_field)
        recipe.append("similarity(exp(W - ln det h / 4))")
        extra["twist"] = g_field
    Qbar = adjoint_with_measure(Q, mu)
    recipe.append("adjoint(measure = det h)")
    pairs = (("Q", Q, Qbar),)
    extra["h"] = geo.hermitian_metric
    return Model(
        name=f"dolbeault(d={d})", coords=coords, rep=rep,
        supercharges=pairs, hamiltonian=_avg_hamiltonian(pairs, mu),
        measure=mu, extra=extra, expected_algebra="N2",
        recipe=tuple(recipe), default_box=((-0.9, 0.9),) * n,
        meta={"geometry": geo})


def geometric_charge(geo, rep, structure=None, bar=False):
    """psi^M [I_M^N] (p_N - i Omega_N,AB psi_A psibar_B) from geometry data.

    With bar=True builds the conjugate form psibar^M [...] (p_N
    - i Omega_N,AB psibar_A psi_B).
    """
    dim, nc = geo.dim, geo.ncoords
    coefmat = geo.e if structure is None else fmatmul(geo.e, structure)
    kind = "psibar" if bar else "psi"
    ordering = "bp" if bar else "pb"
    terms = {}
    zero_terms = []
    for N in range(dim):
        row = fgrid([[fentry(coefmat, A, N) for A in range(dim)]])
        lin = linear(rep, row, kind)
        _acc(terms, unit_index(nc, N), fscale(-1j, lin))
        om_b = bilinear(rep, geo.spin_connection[N], ordering)
        zero_terms.append(fscale(-1j, fmatmul(lin, om_b)))
    _acc(terms, (0,) * nc, fsum(zero_terms, (rep.dim, rep.dim), nc))
    coords = tuple(f"x{m + 1}" for m in range(nc))
    return DiffOp(coords, rep, terms)


def de_rham(omega, D, W=None, torsion=None):
    """Real sigma model; the similarity path and the spin-connection path
    are both built so their identity can be checked at samples."""
    coords = tuple(f"x{a + 1}" for a in range(D))
    rep = complex_fermions(D)
    n = D
    om = omega if hasattr(omega, "eval_jet") else _matrix_field(omega, coords)
    geo = geometry.from_omega(om, "real_symmetric")
    parent = free_real(D)
    Q = similarity(parent.op("Q"), bilinear(rep, om, "pb"))
    q_geo = geometric_charge(geo, rep)
    qbar_geo = geometric_charge(geo, rep, bar=True)
    recipe = [f"free_real(D={D})", "similarity(exp(omega psi psibar))"]
    extra = {"Q_geometric": q_geo, "Qbar_geometric": qbar_geo}
    if W is not None:
        wf = fexpr(_expr(W, coords), n, "W")
        Q = similarity(Q, wf)
        recipe.append("similarity(exp(W))")
    if torsion is not None:
        b = torsion if hasattr(torsion, "eval_jet") else _matrix_field(torsion, coords)
        bk = fscale(1.0, fmatmul(geo.e, b, ftranspose(geo.e)))
        Q = similarity(Q, bilinear(rep, bk, "pp"))
        recipe.append("similarity(exp(B psi^M psi^N))")
    mu = geo.sqrt_det_metric()
    Qbar = adjoint_with_measure(Q, mu)
    recipe.append("adjoint(measure = sqrt(det g))")
    pairs = (("Q", Q, Qbar),)
    return Model(
        name=f"de_rham(D={D})", coords=coords, rep=rep,
        supercharges=pairs, hamiltonian=_avg_hamiltonian(pairs, mu),
        measure=mu, extra=extra, expected_algebra="N2",
        recipe=tuple(recipe), default_box=((-0.9, 0.9),) * n,
        meta={"geometry": geo})


def quasicomplex(omega, D):
    """Hermitian (not real) omega: complex metric e^{-2 omega}.

    The entries must be expressions over x1..xD only; the constructor
    also builds the parent complex model on x, y coordinates and the
    cyclic reduction dropping all y, so both rhombus paths are present.
    """
    coords = tuple(f"x{a + 1}" for a in range(D))
    rep = complex_fermions(D)
    om = _matrix_field(omega, coords)
    parent = free_real(D)
    Q = similarity(parent.op("Q"), bilinear(rep, om, "pb"))

    # direct Hadamard form: psi_D (e^om)_DC [p_C - i (e^om d_C e^-om)_AB psi psibar]
    e = fexp(om)
    einv = fexp(fscale(-1.0, om))
    terms = {}
    zero_terms = []
    for C in range(D):
        row = fgrid([[fentry(e, A, C) for A in range(D)]])
        lin = linear(rep, row, "psi")
        _acc(terms, unit_index(D, C), fscale(-1j, lin))
        conn = fmatmul(e, fderiv(einv, unit_index(D, C)))
        zero_terms.append(fscale(-1j, fmatmul(lin, bilinear(rep, conn, "pb"))))
    _acc(terms, (0,) * D, fsum(zero_terms, (rep.dim, rep.dim), D))
    q_direct = DiffOp(coords, rep, terms)

    # reduction path: the same omega lifted to the complex parent space
    coords2 = _complex_coords(D)
    om2 = _matrix_field(omega, coords2)
    parent2 = free_complex(D)
    q_parent = similarity(parent2.op("Q"), bilinear(rep, om2, "pb"))
    spec2 = SampleSpec(box=((-0.9, 0.9),) * (2 * D), n_points=6, seed=23)
    q_reduced = reduce_cyclic(q_parent, [f"y{a + 1}" for a in range(D)], spec2)

    h = fmatmul(fconj_t(e), e)
    mu = fdet(h)
    Qbar = adjoint_with_measure(Q, mu)
    pairs = (("Q", Q, Qbar),)
    return Model(
        name=f"quasicomplex(D={D})", coords=coords, rep=rep,
        supercharges=pairs, hamiltonian=_avg_hamiltonian(pairs, mu),
        measure=mu,
        extra={"Q_direct": q_direct, "Q_reduced": q_reduced},
        expected_algebra="N2",
        recipe=(f"free_complex(d={D})", "similarity(exp(omega psi psibar))",
                "reduce_cyclic(drop all y)", "adjoint(measure = det h)"),
        default_box=((-0.9, 0.9),) * D,
        meta={"omega_entries": omega})


def _structure_fields(geo, I, rep):
    """F+ , F-, F0 for a complex structure on the geometry's frame."""
    nc = geo.ncoords
    ilow = geometry.lowered(I, geo)
    k = fmatmul(geo.e, ilow, ftranspose(geo.e))
    f_plus = mult_op(bilinear(rep, fscale(0.5, k), "bb"), _geo_coords(geo), rep)
    f_minus = mult_op(bilinear(rep, fscale(0.5, k), "pp"), _geo_coords(geo), rep)
    f_zero = mult_op(fconst(rep.number_op(), nc, "N"), _geo_coords(geo), rep)
    return f_plus, f_minus, f_zero


def _geo_coords(geo):
    return tuple(f"x{m + 1}" for m in range(geo.ncoords))


def kahler(geo, I, omega=None, flat_structure=None):
    """Q plus one extra pair S from a complex structure.

    If the geometry came from a symmetric omega, pass it to also build
    both supercharges by the similarity route for comparison;
    flat_structure (a constant matrix) is the structure of the flat
    parent, defaulting to the constant value of I.
    """
    coords = _geo_coords(geo)
    rep = complex_fermions(geo.dim)
    Q = geometric_charge(geo, rep)
    S = geometric_charge(geo, rep, I.matrix)
    mu = geo.sqrt_det_metric()
    Qbar = adjoint_with_measure(Q, mu)
    Sbar = adjoint_with_measure(S, mu)
    f_plus, f_minus, f_zero = _structure_fields(geo, I, rep)
    extra = {"F+": f_plus, "F-": f_minus, "F0": f_zero}
    recipe = ["free_real", "similarity(exp(omega psi psibar)) applied to Q and S"]
    if omega is not None:
        parent = free_real(geo.dim)
        r_op = bilinear(rep, omega, "pb")
        extra["Q_similarity"] = similarity(parent.op("Q"), r_op)
        if flat_structure is None:
            from .fields import ConstField
            if not isinstance(I.matrix, ConstField):
                raise ValueError("flat_structure needed for non-constant I")
            flat_structure = I.matrix.matrix
        s_flat = DiffOp(coords, rep, {
            unit_index(geo.dim, N): fscale(
                -1j, linear(rep, fconst(flat_structure[:, N][None, :], geo.dim), "psi"))
            for N in range(geo.dim) if np.abs(flat_structure[:, N]).max() > 0})
        extra["S_similarity"] = similarity(s_flat, r_op)
    pairs = (("Q", Q, Qbar), ("S", S, Sbar))
    return Model(
        name="kahler", coords=coords, rep=rep, supercharges=pairs,
        hamiltonian=_avg_hamiltonian(pairs[:1], mu), measure=mu,
        extra=extra, expected_algebra="N4", recipe=tuple(recipe),
        default_box=((-0.9, 0.9),) * geo.ncoords,
        meta={"geometry": geo, "structure": I})


def hyperkahler(geo, triple, omega=None, spec=None):
    """Q plus three extra pairs from a quaternionic triple.

    When a sample spec is given the triple is validated: a quaternion
    failure rejects the triple outright, while failing covariant
    constancy only flags the model (negative controls rely on that).
    """
    coords = _geo_coords(geo)
    rep = complex_fermions(geo.dim)
    structure_ok = True
    if spec is not None:
        qrep = geometry.check_quaternion(*triple, spec)
        if not qrep.ok:
            raise ValueError(f"triple fails the quaternion algebra: {qrep.line()}")
        for r in sampled_residual(
                [geometry.covariant_derivative_fields(s, geo) for s in triple],
                spec):
            if r.max_abs > 1e-8 * (1.0 + r.scale):
                structure_ok = False
    Q = geometric_charge(geo, rep)
    mu = geo.sqrt_det_metric()
    Qbar = adjoint_with_measure(Q, mu)
    pairs = [("Q", Q, Qbar)]
    extra = {}
    for a, I in enumerate(triple, start=1):
        S = geometric_charge(geo, rep, I.matrix)
        pairs.append((f"S{a}", S, adjoint_with_measure(S, mu)))
        fp, fm, _f0 = _structure_fields(geo, I, rep)
        extra[f"F{a}+"] = fp
        extra[f"F{a}-"] = fm
    extra["F0"] = mult_op(fconst(rep.number_op(), geo.ncoords, "N"), coords, rep)
    return Model(
        name="hyperkahler", coords=coords, rep=rep,
        supercharges=tuple(pairs), hamiltonian=_avg_hamiltonian(pairs[:1], mu),
        measure=mu, extra=extra, expected_algebra="N8",
        recipe=("free_real", "similarity applied to Q and S^a",),
        default_box=((-0.9, 0.9),) * geo.ncoords,
        meta={"geometry": geo, "triple": triple,
              "structure_ok": structure_ok})


def hkt_conformal(g="0.1*(x1^2 + x2^2 + y1^2 + y2^2)"):
    """Conformally flat model on two complex dimensions.

    Q and S are built twice: by the exact similarity with
    R = g(x) psi_a psibar_a, and directly as
    sqrt(2) f psi_a (pi_a + i (d_a f / f) psi_c psibar_c), f = e^g,
    with d_a = (d_x_a + i d_y_a)/sqrt(2) (and the conjugate in S).
    """
    d = 2
    coords = _complex_coords(d)
    n = len(coords)
    rep = complex_fermions(d)
    g_expr = _expr(g, coords)
    gf = fexpr(g_expr, n, "g")
    r_field = fdiag(gf, d)
    r_op = bilinear(rep, r_field, "pb")
    parent = free_complex(d)
    Q = similarity(parent.op("Q"), r_op)
    S = similarity(parent.op("S"), r_op)

    ff = ScalarFnField("exp", gf)
    num = fconst(rep.number_op(), n, "N")
    eps = const_tensor("epsilon")

    def direct(bar_momentum):
        terms = {}
        zero_terms = []
        for a in range(d):
            psi_rows = []
            if bar_momentum:
                coeffs = [(b, eps[b, a]) for b in range(d) if eps[b, a]]
            else:
                coeffs = [(a, 1.0)]
            mat = np.zeros((rep.dim, rep.dim), dtype=complex)
            for b, c in coeffs:
                mat += c * rep.psi[b]
            psi_a = fscalarmul(ff, fconst(mat, n))
            sx = -1j
            sy = -1.0 if bar_momentum else 1.0
            _acc(terms, unit_index(n, a), fscale(sx, psi_a))
            _acc(terms, unit_index(n, d + a), fscale(sy, psi_a))
            dx = fderiv(ff, unit_index(n, a))
            dy = fderiv(ff, unit_index(n, d + a))
            sgn = -1j if bar_momentum else 1j
            da_f = fsum([dx, fscale(sgn * 1j * (-1j), dy)], (1, 1), n)
            # da_f = dx + i dy (holomorphic case) or dx - i dy (conjugate)
            zero_terms.append(fscale(1j, fmatmul(
                fscalarmul(da_f, fconst(mat, n)), num)))
        _acc(terms, (0,) * n, fsum(zero_terms, (rep.dim, rep.dim), n))
        return DiffOp(coords, rep, terms)

    q_direct = direct(bar_momentum=False)
    s_direct = direct(bar_momentum=True)

    # measure pinned by N=4 closure: only e^{-2g} = (det g_4d)^(1/4) makes
    # {Q, Sbar} vanish and {S, Sbar} = {Q, Qbar}; det h fails.
    mu = ScalarFnField("exp", fscale(-2.0, gf))
    Qbar = adjoint_with_measure(Q, mu)
    Sbar = adjoint_with_measure(S, mu)
    pairs = (("Q", Q, Qbar), ("S", S, Sbar))
    return Model(
        name="hkt_conformal", coords=coords, rep=rep, supercharges=pairs,
        hamiltonian=_avg_hamiltonian(pairs[:1], mu), measure=mu,
        extra={"Q_direct": q_direct, "S_direct": s_direct},
        expected_algebra="N4",
        recipe=("free_complex(d=2) with S-pair",
                "similarity(exp(g psi_a psibar_a))",
                "adjoint(measure = e^{-2g})"),
        default_box=((-0.8, 0.8),) * n,
        meta={"ctor": ("hkt_conformal", {"g": g})})


def okt_flat():
    """Eight Hermitian supercharges on flat R^8 from the seven gammas."""
    D = 8
    coords = tuple(f"x{a + 1}" for a in range(D))
    rep = hermitian_fermions(D)
    gammas = const_tensor("gamma7")
    charges = [("Q0", DiffOp(coords, rep, {
        unit_index(D, a): fscale(-1j, fconst(rep.psi[a], D, f"psi{a + 1}"))
        for a in range(D)}))]
    for g_idx in range(7):
        g = gammas[g_idx]
        terms = {}
        for a in range(D):
            mat = sum(g[a, b] * rep.psi[b] for b in range(D))
            terms[unit_index(D, a)] = fscale(-1j, fconst(mat, D))
        charges.append((f"S{g_idx + 1}", DiffOp(coords, rep, terms)))
    h = compose(charges[0][1], charges[0][1])
    return Model(
        name="okt_flat", coords=coords, rep=rep, supercharges=(),
        hermitian_charges=tuple(charges), hamiltonian=h, measure=None,
        expected_algebra="N8-hermitian",
        recipe=("free_real(D=8), Hermitian fermion presentation",),
        default_box=((-1.0, 1.0),) * D,
        meta={"ctor": ("okt_flat", {})})


def instanton(rho=1.0):
    """Self-dual SU(2) gauge field on flat R^4 with N=4 supercharges."""
    if rho <= 0:
        raise ValueError("instanton size must be positive")
    coords = ("x1", "x2", "x3", "x4")
    n = 4
    rep = complex_fermions(2, color_dim=2)
    eta = const_tensor("eta")
    sigma = const_tensor("sigma_euclid")
    sigma_dag = const_tensor("sigma_euclid_dag")
    xs = [Coord(i, coords[i]) for i in range(4)]
    denom = xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2] + xs[3] * xs[3] + rho ** 2

    # A_mu = 2 eta^a_{mu nu} x_nu t^a / (x^2 + rho^2), t^a = color su(2)
    a_fields = []
    for mu in range(4):
        parts = []
        for a in range(3):
            sc = None
            for nu in range(4):
                if eta[a, mu, nu]:
                    term = Const(2.0 * eta[a, mu, nu]) * xs[nu] / denom
                    sc = term if sc is None else sc + term
            if sc is not None:
                parts.append(fscalarmul(fexpr(sc, n), fconst(rep.color[a], n)))
        a_fields.append(fsum(parts, (rep.dim, rep.dim), n) if parts
                        else ZeroField((rep.dim, rep.dim), n))

    def charge(alpha, dag):
        terms = {}
        zero = []
        smat = sigma_dag if dag else sigma
        for mu in range(4):
            if dag:
                mat = sum(smat[mu][b, alpha] * rep.psi[b] for b in range(2))
            else:
                mat = sum(smat[mu][alpha, b] * rep.psibar[b] for b in range(2))
            cm = fconst(mat, n)
            _acc(terms, unit_index(n, mu), fscale(-1j, cm))
            if not isinstance(a_fields[mu], ZeroField):
                zero.append(fscale(-1.0, fmatmul(cm, a_fields[mu])))
        _acc(terms, (0,) * n, fsum(zero, (rep.dim, rep.dim), n))
        return DiffOp(coords, rep, terms)

    pairs = []
    for alpha in range(2):
        q = charge(alpha, dag=False)
        qbar = charge(alpha, dag=True)
        pairs.append((f"Q{alpha + 1}", q, qbar))

    # L^a = 2 t^a - i eta^a_{mu nu} (x_mu d_nu + psi sigma^+_mu sigma_nu psibar / 4)
    constraints = {}
    for a in range(3):
        terms = {}
        zero = [fconst(2.0 * rep.color[a], n)]
        ferm = np.zeros((2, 2), dtype=complex)
        for mu in range(4):
            for nu in range(4):
                if not eta[a, mu, nu]:
                    continue
                sc = fexpr(Const(-1j * eta[a, mu, nu]) * xs[mu], n)
                _acc(terms, unit_index(n, nu),
                     fscalarmul(sc, fidentity(rep.dim, n)))
                ferm += eta[a, mu, nu] * (sigma_dag[mu] @ sigma[nu])
        zero.append(fscale(-1j / 4.0, bilinear(rep, fconst(ferm, n), "pb")))
        _acc(terms, (0,) * n, fsum(zero, (rep.dim, rep.dim), n))
        constraints[f"L{a + 1}"] = DiffOp(coords, rep, terms)

    ham = _avg_hamiltonian(pairs, None)
    return Model(
        name="instanton", coords=coords, rep=rep, supercharges=tuple(pairs),
        hamiltonian=ham, measure=None, constraints=constraints,
        expected_algebra="N4",
        recipe=("free_complex(d=2) x color", "self-dual gauge rotation",),
        default_box=((-1.2, 1.2),) * 4,
        meta={"ctor": ("instanton", {"rho": rho}), "rho": rho})


def gauge_sym3():
    """Dimensionally reduced (2+1) SU(2) gauge model before reduction:
    Q is not nilpotent, Q^2 = A^a_- G^a with Gauss constraints G^a."""
    coords = ("A11", "A12", "A21", "A22", "A31", "A32")   # A^a_j, a-major
    n = 6
    rep = complex_fermions(3)
    eps3 = const_tensor("epsilon3")
    a_var = [[Coord(2 * a + j, coords[2 * a + j]) for j in range(2)]
             for a in range(3)]

    def b_expr(a):
        # B^a = -(i/2) eps^abc A_-^b A_+^c = eps^abc A^b_1 A^c_2; the
        # eps_jk A A form would double it, and only this normalisation
        # satisfies both Q^2 = A_- G and the quartic potential term.
        out = None
        for b in range(3):
            for c in range(3):
                if not eps3[a, b, c]:
                    continue
                term = Const(eps3[a, b, c]) * (a_var[b][0] * a_var[c][1])
                out = term if out is None else out + term
        return out

    terms = {}
    zero = []
    for a in range(3):
        psi = fconst(rep.psi[a], n, f"psi{a + 1}")
        psibar = fconst(rep.psibar[a], n, f"psibar{a + 1}")
        # Pi_-^a psi^a = (-i d_1 - d_2) psi^a
        _acc(terms, unit_index(n, 2 * a), fscale(-1j, psi))
        _acc(terms, unit_index(n, 2 * a + 1), fscale(-1.0, psi))
        zero.append(fscalarmul(fscale(1j, fexpr(b_expr(a), n, f"B{a + 1}")), psibar))
    _acc(terms, (0,) * n, fsum(zero, (rep.dim, rep.dim), n))
    Q = DiffOp(coords, rep, terms)
    Qbar = naive_dagger(Q)

    constraints = {}
    for a in range(3):
        terms_g = {}
        ferm = np.zeros((rep.dim, rep.dim), dtype=complex)
        for b in range(3):
            for c in range(3):
                if not eps3[a, b, c]:
                    continue
                for j in range(2):
                    sc = fexpr(Const(-1j * eps3[a, b, c]) * a_var[b][j], n)
                    _acc(terms_g, unit_index(n, 2 * c + j),
                         fscalarmul(sc, fidentity(rep.dim, n)))
                ferm += -1j * eps3[a, b, c] * (rep.psi[b] @ rep.psibar[c])
        _acc(terms_g, (0,) * n, fconst(ferm, n))
        constraints[f"G{a + 1}"] = DiffOp(coords, rep, terms_g)

    # independent Hamiltonian: Pi^2/2 + quartic potential + Yukawa terms
    h_terms = {}
    for m in range(n):
        idx = tuple(2 if i == m else 0 for i in range(n))
        h_terms[idx] = fscale(-0.5, fidentity(rep.dim, n))
    aa = None
    for a in range(3):
        for j in range(2):
            t = a_var[a][j] * a_var[a][j]
            aa = t if aa is None else aa + t
    quart = aa * aa
    cross = None
    for a in range(3):
        for b in range(3):
            for j in range(2):
                for k in range(2):
                    t = a_var[a][j] * a_var[a][k] * a_var[b][j] * a_var[b][k]
                    cross = t if cross is None else cross + t
    pot = fexpr(Const(0.25) * (quart - cross), n, "V")
    yuk = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if not eps3[a, b, c]:
                    continue
                a_plus = a_var[c][0] + Const(1j) * a_var[c][1]
                a_minus = a_var[c][0] - Const(1j) * a_var[c][1]
                yuk.append(fscalarmul(
                    fexpr(Const(0.5j * eps3[a, b, c]) * a_plus, n),
                    fconst(rep.psibar[a] @ rep.psibar[b], n)))
                yuk.append(fscalarmul(
                    fexpr(Const(0.5j * eps3[a, b, c]) * a_minus, n),
                    fconst(rep.psi[a] @ rep.psi[b], n)))
    h_zero = fsum([fscalarmul(pot, fidentity(rep.dim, n))] + yuk,
                  (rep.dim, rep.dim), n)
    h_direct = DiffOp(coords, rep, h_terms) + DiffOp(coords, rep, {(0,) * n: h_zero})

    pairs = (("Q", Q, Qbar),)
    ham = _avg_hamiltonian(pairs, None)
    a_minus_fields = {a: fexpr(a_var[a][0] - Const(1j) * a_var[a][1], n)
                      for a in range(3)}
    return Model(
        name="gauge_sym3", coords=coords, rep=rep, supercharges=pairs,
        hamiltonian=ham, measure=None, constraints=constraints,
        extra={"H_direct": h_direct},
        expected_algebra="gauge",
        recipe=("dimensional reduction of (2+1) SU(2) gauge theory",),
        default_box=((-1.0, 1.0),) * 6,
        meta={"ctor": ("gauge_sym3", {}), "a_minus": a_minus_fields})


def gauge_sym3_resolved(g0=1.0):
    """Gauge-fixed supercharges on the three invariant variables (a, b, alpha).

    Built verbatim; nilpotency and Hermiticity are exploratory reports,
    not assertions.  Samples must exclude a = +-b, a = 0, b = 0.
    """
    coords = ("a", "b", "alpha")
    n = 3
    rep = complex_fermions(3)
    eps3 = const_tensor("epsilon3")
    j_ops = []
    for a in range(3):
        m = np.zeros((rep.dim, rep.dim), dtype=complex)
        for b in range(3):
            for c in range(3):
                if eps3[a, b, c]:
                    m += 1j * eps3[a, b, c] * (rep.psi[b] @ rep.psibar[c])
        j_ops.append(m)

    av, bv, _alv = (Coord(i, coords[i]) for i in range(3))
    p_a = momentum_op(coords, rep, "a")
    p_b = momentum_op(coords, rep, "b")
    p_al = momentum_op(coords, rep, "alpha")
    den = av * av - bv * bv

    def mk(sign):
        """sign=+1 builds Q^cov, -1 its conjugate partner Qbar^cov."""
        psi = rep.psi if sign > 0 else rep.psibar
        psibar = rep.psibar if sign > 0 else rep.psi
        phase = fexpr(_expr(f"exp({'-' if sign > 0 else ''}i*alpha)", coords), n)
        j1 = fconst(j_ops[0], n, "J1")
        j2 = fconst(j_ops[1], n, "J2")
        j3 = fconst(j_ops[2], n, "J3")
        s = 1.0 if sign > 0 else -1.0
        term1 = compose(mult_op(fconst(psi[0], n), coords, rep),
                        p_a + (-s * 1j) * (
                            compose(mult_op(fexpr(av / den, n), coords, rep), p_al)
                            + mult_op(fscalarmul(fexpr(bv / den, n), j3), coords, rep)))
        term2 = compose(mult_op(fconst(psi[1], n), coords, rep),
                        (-s * 1j) * p_b
                        + compose(mult_op(fexpr(bv / den, n), coords, rep), p_al)
                        + mult_op(fscalarmul(fexpr(av / den, n), j3), coords, rep))
        term3 = compose(mult_op(fconst(psi[2], n), coords, rep),
                        mult_op(fsum([fscalarmul(fexpr(Const(1) / av, n), j2),
                                      fscalarmul(fexpr(Const(s * 1j) / bv, n), j1)],
                                     (rep.dim, rep.dim), n),
                                coords, rep))
        bracket = term1 + term2 + (-1.0) * term3
        head = compose(mult_op(fscale(g0, phase), coords, rep), bracket)
        tail = mult_op(fscalarmul(fexpr(Const(s * 1j / g0) * av * bv, n),
                                  fconst(psibar[2], n)), coords, rep)
        return head + tail

    Q = mk(+1)
    Qbar = mk(-1)
    pairs = (("Qcov", Q, Qbar),)
    ham = _avg_hamiltonian(pairs, None)
    exclusions = (
        Exclusion(_expr("a-b", coords), 0.15),
        Exclusion(_expr("a+b", coords), 0.15),
        Exclusion(_expr("a", coords), 0.15),
        Exclusion(_expr("b", coords), 0.15),
    )
    return Model(
        name="gauge_sym3_resolved", coords=coords, rep=rep, supercharges=pairs,
        hamiltonian=ham, measure=None, expected_algebra="exploratory",
        recipe=("gauge_sym3", "polar decomposition, gauge fixed",
                "hamiltonian reduction by Gauss constraints"),
        default_box=((1.0, 2.0), (0.2, 0.8), (0.0, 6.28)),
        default_exclusions=exclusions,
        meta={"ctor": ("gauge_sym3_resolved", {"g0": g0}), "g0": g0})


def _mode_label(vec):
    return "m" + "".join(str(int(x)) for x in vec)


def wz_modes(mode_set=((1, 0, 0),)):
    """Mode truncation of the free massless Wess-Zumino field theory.

    Per mode: real coordinates f1, f2 with Pi = (P1 - i P2)/sqrt(2)
    conjugate to phi = (f1 + i f2)/sqrt(2), and a fermion doublet.  The
    supercharges close on the central-charge algebra
    {Q_alpha, Qbar_beta} = 2 (delta H + sigma_j P_j); the engine derives
    the fermionic part of H and of P_j from eigenmodes of the literal
    supercharges so all conventions stay pinned by closure.
    """
    modes = [tuple(int(x) for x in m) for m in mode_set]
    nm = len(modes)
    if nm > 4:
        raise ValueError("mode cap is 4 (two complex fermions per mode)")
    coords = tuple(f"f{i}_{_mode_label(m)}" for m in modes for i in (1, 2))
    n = 2 * nm
    rep = complex_fermions(2 * nm)
    sigma = const_tensor("sigma_pauli")

    def psi_op(k, alpha):
        return rep.psi[2 * k + alpha]

    def psibar_op(k, alpha):
        return rep.psibar[2 * k + alpha]

    f_coord = {(k, i): Coord(2 * k + i - 1, coords[2 * k + i - 1])
               for k in range(nm) for i in (1, 2)}

    def p_op(k, i):
        return momentum_op(coords, rep, 2 * k + i - 1)

    # supercharges, Eq.-literal
    q_terms = [zero_op(coords, rep), zero_op(coords, rep)]
    for k, mvec in enumerate(modes):
        pi_op = (1.0 / SQRT2) * (p_op(k, 1) + (-1j) * p_op(k, 2))
        phibar = fexpr((f_coord[(k, 1)] - Const(1j) * f_coord[(k, 2)])
                       * Const(1 / SQRT2), n)
        nsig = sum(mvec[j] * sigma[j] for j in range(3))
        for alpha in range(2):
            q_terms[alpha] = q_terms[alpha] + SQRT2 * compose(
                mult_op(fconst(psi_op(k, alpha), n), coords, rep), pi_op)
            mat = np.zeros((rep.dim, rep.dim), dtype=complex)
            for beta in range(2):
                mat += nsig[alpha, beta] * psi_op(k, beta)
            if np.abs(mat).max() > 0:
                q_terms[alpha] = q_terms[alpha] + mult_op(
                    fscalarmul(fscale(-2j * math.pi * SQRT2, phibar),
                               fconst(mat, n)), coords, rep)
    q1, q2 = q_terms
    pairs = (("Q1", q1, naive_dagger(q1)), ("Q2", q2, naive_dagger(q2)))

    # per-mode eigen machinery
    h_direct = zero_op(coords, rep)
    p_ops = {j: zero_op(coords, rep) for j in range(3)}
    extra = {}
    qcal = zero_op(coords, rep)
    qcal0 = zero_op(coords, rep)
    w_total = None
    for k, mvec in enumerate(modes):
        lam = math.sqrt(sum(x * x for x in mvec))
        nsig = sum(mvec[j] * sigma[j] for j in range(3))
        m_eff = -nsig.T     # fermion matrix of H for the literal supercharges
        chi = _eigenmodes(m_eff, lam)
        c_ops = []
        for i in range(2):
            mat = sum(chi[i][alpha] * psi_op(k, alpha) for alpha in range(2))
            c_ops.append(mat)
        # H_n = Pibar Pi + (2 pi n)^2 phibar phi - 2 pi lam (c1 c1bar - c2 c2bar)
        pi_op = (1.0 / SQRT2) * (p_op(k, 1) + (-1j) * p_op(k, 2))
        pibar_op = (1.0 / SQRT2) * (p_op(k, 1) + (1j) * p_op(k, 2))
        h_k = compose(pibar_op, pi_op)
        phi2 = fexpr((f_coord[(k, 1)] * f_coord[(k, 1)]
                      + f_coord[(k, 2)] * f_coord[(k, 2)]) * Const(0.5), n)
        if lam:
            h_k = h_k + mult_op(fscale((2 * math.pi * lam) ** 2, phi2),
                                coords, rep)
            ferm = (c_ops[0] @ c_ops[0].conj().T - c_ops[1] @ c_ops[1].conj().T)
            h_k = h_k + mult_op(fconst(-2 * math.pi * lam * ferm, n), coords, rep)
        h_direct = h_direct + h_k
        extra[f"H_{_mode_label(mvec)}"] = h_k

        # P_j = 2 pi n_j [ i (phi Pi - phibar Pibar) + N_f - 1 ]
        phi_f = fexpr((f_coord[(k, 1)] + Const(1j) * f_coord[(k, 2)])
                      * Const(1 / SQRT2), n)
        phibar_f = fexpr((f_coord[(k, 1)] - Const(1j) * f_coord[(k, 2)])
                         * Const(1 / SQRT2), n)
        nf = sum(psi_op(k, a) @ psibar_op(k, a) for a in range(2))
        pj_core = (1j) * (compose(mult_op(phi_f, coords, rep), pi_op)
                          + (-1.0) * compose(mult_op(phibar_f, coords, rep), pibar_op))
        pj_core = pj_core + mult_op(fconst(nf - np.eye(rep.dim), n), coords, rep)
        for j in range(3):
            if mvec[j]:
                p_ops[j] = p_ops[j] + (2 * math.pi * mvec[j]) * pj_core

        # nilpotent per-mode supercharge and the free one
        x1 = p_op(k, 1) + mult_op(fexpr(
            Const(2j * math.pi * lam) * f_coord[(k, 1)], n), coords, rep)
        x2 = p_op(k, 2) + mult_op(fexpr(
            Const(-2j * math.pi * lam) * f_coord[(k, 2)], n), coords, rep)
        qcal_k = (compose(mult_op(fconst(c_ops[0], n), coords, rep), x1)
                  + compose(mult_op(fconst(c_ops[1], n), coords, rep), x2))
        extra[f"Qcal_{_mode_label(mvec)}"] = qcal_k
        qcal = qcal + qcal_k
        qcal0 = qcal0 + (compose(mult_op(fconst(c_ops[0], n), coords, rep), p_op(k, 1))
                         + compose(mult_op(fconst(c_ops[1], n), coords, rep), p_op(k, 2)))
        w_k = Const(math.pi * lam) * (f_coord[(k, 1)] * f_coord[(k, 1)]
                                      - f_coord[(k, 2)] * f_coord[(k, 2)])
        w_total = w_k if w_total is None else w_total + w_k

    extra.update({
        "H_direct": h_direct,
        "P1": p_ops[0], "P2": p_ops[1], "P3": p_ops[2],
        "Qcal": qcal, "Qcal0": qcal0,
    })
    ham = _avg_hamiltonian(pairs, None)
    return Model(
        name=f"wz_modes({len(modes)})", coords=coords, rep=rep,
        supercharges=pairs, hamiltonian=ham, measure=None, extra=extra,
        expected_algebra="central",
        recipe=("wess-zumino mode truncation",
                "eigenmode supercharges, similarity from free"),
        default_box=((-1.0, 1.0),) * n,
        meta={"ctor": ("wz_modes", {"mode_set": tuple(modes)}),
              "modes": modes, "superpotential": w_total})


def wz_interacting_charge(model, mass=1.0):
    """Mass-deformed supercharges of the mode truncation, for display and
    bracket experiments only.

    Adds to Q_alpha the term i sqrt(2) m sum_n phibar_n psibar_{alpha,-n}
    (the mode transcription of a quadratic superpotential); the mode set
    must be closed under n -> -n.  Nothing is asserted about these
    charges: whether they relate to the free ones by any similarity map
    is a universally quantified question the engine cannot test.
    """
    modes = model.meta["modes"]
    index = {tuple(m): k for k, m in enumerate(modes)}
    coords, rep, n = model.coords, model.rep, len(model.coords)
    out = []
    for alpha in range(2):
        extra = zero_op(coords, rep)
        for k, mvec in enumerate(modes):
            neg = tuple(-x for x in mvec)
            if neg not in index:
                raise ValueError("mode set must be closed under negation")
            kneg = index[neg]
            phibar = fexpr((Coord(2 * k, coords[2 * k])
                            - Const(1j) * Coord(2 * k + 1, coords[2 * k + 1]))
                           * Const(1 / SQRT2), n)
            psibar = rep.psibar[2 * kneg + alpha]
            extra = extra + mult_op(
                fscalarmul(fscale(1j * SQRT2 * mass, phibar),
                           fconst(psibar, n)), coords, rep)
        out.append(model.op(f"Q{alpha + 1}") + extra)
    return tuple(out)


def _eigenmodes(m_eff, lam):
    """Orthonormal eigenvectors of the fermion matrix, phase-fixed so the
    first nonvanishing component is real positive; chi[0] has eigenvalue
    +lam, chi[1] has -lam.  Degenerate (lam = 0) modes use the identity."""
    if lam == 0:
        return [np.array([1.0, 0.0], dtype=complex),
                np.array([0.0, 1.0], dtype=complex)]
    vals, vecs = np.linalg.eigh(m_eff)
    order = np.argsort(-vals.real)
    out = []
    for pos in order:
        v = vecs[:, pos].astype(complex)
        for comp in v:
            if abs(comp) > 1e-12:
                v = v * (abs(comp) / comp)
                break
        out.append(v)
    return out


def torsion_rotate(model, B, kind="holomorphic"):
    """Rotate Q with exp of a fermion bilinear built from antisymmetric B.

    kind holomorphic uses psi psi, antiholomorphic uses psibar psibar.
    Only the first supercharge pair is carried over (the rotation keeps
    plain nilpotency, not extended algebras)."""
    rep = model.rep
    n = len(model.coords)
    b_field = B if hasattr(B, "eval_jet") else _matrix_field(B, model.coords)
    ordering = "pp" if kind == "holomorphic" else "bb"
    r_op = bilinear(rep, b_field, ordering)
    name, q, _qb = model.supercharges[0]
    q_new = similarity(q, r_op)
    qbar_new = _conjugate(q_new, model.measure)
    pairs = ((name, q_new, qbar_new),)
    return Model(
        name=f"{model.name}+torsion({kind})", coords=model.coords, rep=rep,
        supercharges=pairs, hamiltonian=_avg_hamiltonian(pairs, model.measure),
        measure=model.measure, expected_algebra="N2",
        recipe=model.recipe + (f"similarity(exp({kind} bilinear))",),
        default_box=model.default_box,
        default_exclusions=model.default_exclusions,
        meta={"parent": model.name})


# ---------------------------------------------------------------------------
# geometry-backed convenience constructors (scenario-friendly parameters)


def _warped_geometry(u):
    """Geometry of e^{2u}((dx1)^2+(dx2)^2) + (dx3)^2 + (dx4)^2 from the
    log-vielbein omega = diag(-u, -u, 0, 0); returns (geometry, omega)."""
    coords = ("x1", "x2", "x3", "x4")
    mu = fscale(-1.0, fexpr(_expr(u, coords), 4, "u"))
    z = ZeroField((1, 1), 4)
    om = fgrid([[mu, z, z, z], [z, mu, z, z],
                [z, z, z, z], [z, z, z, z]])
    return geometry.from_omega(om, "real_symmetric"), om


def kahler_warped(u="0.3*sin(x1) + 0.2*x2^2"):
    """Warped product metric e^{2u}((dx1)^2+(dx2)^2) + (dx3)^2 + (dx4)^2
    with the block complex structure pairing (1,2) and (3,4).

    Kahler iff u is independent of x3, x4; a u depending on x3 serves as
    the negative control (covariant constancy and the extended algebra
    then fail)."""
    geo, om = _warped_geometry(u)
    I = geometry.constant_structure(geometry.kahler_block_structure(4), 4)
    m = kahler(geo, I, omega=om)
    m.meta["ctor"] = ("kahler_warped", {"u": u})
    return m


def hyperkahler_flat(D=4):
    """Flat space with the canonical quaternionic triple: N=8 exactly."""
    nc = D
    zgrid = fgrid([[ZeroField((1, 1), nc)] * D] * D)
    geo = geometry.from_omega(zgrid, "real_symmetric")
    trio = [geometry.constant_structure(c, nc, label=a + 1)
            for a, c in enumerate(geometry.canonical_triple(D))]
    m = hyperkahler(geo, trio)
    m.meta["ctor"] = ("hyperkahler_flat", {"D": D})
    return m


GH_BOX = ((0.6, 1.4), (0.6, 1.4), (0.6, 1.4), (-1.0, 1.0))


def hyperkahler_gibbons_hawking(centers=((0.0, 0.0, 0.0),), weights=(0.5,),
                                eps=1.0, box=GH_BOX, seed=0):
    """Gibbons-Hawking metric with the covariantly constant 't Hooft
    orientation auto-selected; the sample box must avoid the centers and
    the gauge strings on the negative x3-axis below them."""
    geo, v, a = geometry.gibbons_hawking(
        [tuple(c) for c in centers], list(weights), eps)
    sel_spec = SampleSpec(box=tuple(tuple(b) for b in box), n_points=6, seed=seed)
    trio, variant = geometry.select_orientation(geo, sel_spec)
    m = hyperkahler(geo, trio, spec=sel_spec)
    return Model(
        name="hyperkahler_gh", coords=m.coords, rep=m.rep,
        supercharges=m.supercharges, hamiltonian=m.hamiltonian,
        measure=m.measure, extra=m.extra, expected_algebra="N8",
        recipe=m.recipe + (f"orientation {variant} selected",),
        default_box=tuple(tuple(b) for b in box),
        meta={**m.meta, "potential": v, "vector_potential": a,
              "orientation": variant,
              "ctor": ("hyperkahler_gibbons_hawking",
                       {"centers": centers, "weights": weights, "eps": eps,
                        "box": box, "seed": seed})})


def hyperkahler_kahler_control(u="0.3*sin(x1) + 0.2*x2^2"):
    """Negative control: warped Kahler metric with the flat canonical
    triple; only one structure is covariantly constant, so parts of the
    N=8 algebra must fail."""
    geo, _om = _warped_geometry(u)
    trio = [geometry.constant_structure(c, 4, label=a + 1)
            for a, c in enumerate(geometry.canonical_triple(4))]
    spec = SampleSpec(box=((-0.9, 0.9),) * 4, n_points=6, seed=3)
    m = hyperkahler(geo, trio, spec=spec)
    m.meta["ctor"] = ("hyperkahler_kahler_control", {"u": u})
    return m


# ---------------------------------------------------------------------------
# catalog


CATALOG = {
    "witten": (witten, "superpotential model, N=2"),
    "free_complex": (free_complex, "free flat complex dynamics, N=2 (N=4 for even d)"),
    "free_real": (free_real, "free flat real dynamics, N=2"),
    "dolbeault": (dolbeault, "complex sigma model with Hermitian metric, N=2"),
    "de_rham": (de_rham, "real sigma model, similarity == spin connection, N=2"),
    "quasicomplex": (quasicomplex, "Hermitian omega, complex metric, N=2"),
    "kahler": (kahler, "extra supercharge pair from a complex structure, N=4"),
    "kahler_warped": (kahler_warped, "warped-product Kahler example, N=4 + theorem checks"),
    "hyperkahler": (hyperkahler, "three extra pairs from a quaternionic triple, N=8"),
    "hyperkahler_flat": (hyperkahler_flat, "flat canonical triple, N=8"),
    "hyperkahler_gibbons_hawking": (hyperkahler_gibbons_hawking,
                                    "multi-center hyper-Kahler metric, N=8"),
    "hkt_conformal": (hkt_conformal, "conformally flat two-complex-dim model, N=4"),
    "okt_flat": (okt_flat, "eight Hermitian supercharges on flat R^8"),
    "instanton": (instanton, "self-dual gauge field, N=4 with su(2) symmetry"),
    "gauge_sym3": (gauge_sym3, "gauge model: Q^2 = A_- G, Gauss constraints"),
    "gauge_sym3_resolved": (gauge_sym3_resolved, "gauge-fixed supercharges, exploratory"),
    "wz_modes": (wz_modes, "Wess-Zumino mode truncation, central-charge algebra"),
    "torsion_rotate": (torsion_rotate, "holomorphic/antiholomorphic torsion rotation"),
}


def list_models():
    """Catalog text: one line per constructor."""
    lines = []
    for name, (_fn, desc) in sorted(CATALOG.items()):
        lines.append(f"{name:22s} {desc}")
    return "\n".join(lines)
