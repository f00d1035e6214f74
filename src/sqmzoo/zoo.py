"""Model constructors: every model is reached from free flat complex
dynamics by similarity transformations and cyclic reductions, and each
records the recipe that produced it.

Conventions fixed here once and pinned by the flat acceptance tests:

* complex coordinates are stored as real pairs, coordinate list
  x1..xd, y1..yd, with pi_a = (p_x^(a) + i p_y^(a)) / sqrt(2), so the
  flat complex supercharge is Q = sqrt(2) psi_a pi_a,
* supercharge conjugates are measure-weighted adjoints,
  Qbar = mu^-1 Q^+ mu, with mu declared per model (None = flat),
* a model's hamiltonian is {Qbar_1, Q_1}/2, or for the two-pair
  instanton and central-charge models the mean over both pairs, which
  for the central-charge model removes the momentum term (all three
  conventions are applied by ``assemble``),
* complex structures enter as mixed-index matrices I_M^N with the
  rotated extra supercharge S = psi^M I_M^N (p_N - i Omega_N,AB psi_A
  psibar_B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import geometry
from .clifford import bilinear, complex_fermions, const_tensor, hermitian_fermions, linear
from .diffop import (DiffOp, Exclusion, SampleSpec, adjoint_with_measure,
                     anticommutator, compose, momentum_op, mult_op,
                     naive_dagger, reduce_cyclic, rename_coords,
                     similarity, unit_index, zero_op)
from .expr import Const, Coord, parse
from .fields import (ConstField, ScalarFnField, ZeroField, fconst, fdet,
                     fdiag, fentry, fexp, fexpr, fgrid, fidentity, flog,
                     fmatmul, fscale, fscalarmul, fsum, ftranspose)

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Model:
    """A constructed model: its operator table plus the construction trace.

    ``ops`` maps each operator name to its DiffOp, in table order: each
    supercharge and then, for a complex-kind representation, its
    ``bar``, then ``H``, then constraints and comparison operators.
    ``charges`` names the supercharges in that order."""

    name: str
    coords: tuple
    rep: object
    ops: dict
    charges: tuple
    measure: object = None       # scalar field mu, or None for flat
    expected_algebra: str = "N2"
    recipe: tuple = ()
    default_box: tuple = ()
    default_exclusions: tuple = ()
    meta: dict = dc_field(default_factory=dict)

    def sample_spec(self, n_points=20, seed=0):
        return SampleSpec(box=self.default_box, n_points=n_points, seed=seed,
                          exclusions=self.default_exclusions)

    @staticmethod
    def bar(name):
        """The table name of supercharge ``name``'s conjugate."""
        return name + "bar"

    def op(self, name):
        """Look up any named operator of the model."""
        try:
            return self.ops[name]
        except KeyError:
            raise KeyError(f"model {self.name} has no operator {name!r}") from None


def assemble(name, coords, rep, charges, measure=None, h_pairs=1, ops=(),
             **fields):
    """The model with supercharges ``charges``, each ``(name, Q)`` or
    ``(name, Q, Qbar)``, followed in its table by ``ops``.

    A missing Qbar is the measure-weighted adjoint of Q, or the flat
    dagger when there is no measure.  H is the mean of {Qbar_i, Q_i}/2
    over the first ``h_pairs`` pairs."""
    table = {}
    h = None
    for i, (cname, q, *qbar) in enumerate(charges):
        qb = qbar[0] if qbar else (naive_dagger(q) if measure is None
                                   else adjoint_with_measure(q, measure))
        table[cname] = q
        table[Model.bar(cname)] = qb
        if i < h_pairs:
            term = 0.5 * anticommutator(qb, q)
            h = term if h is None else h + term
    table["H"] = (1.0 / h_pairs) * h
    table.update(ops)
    return Model(name=name, coords=tuple(coords), rep=rep, ops=table,
                 charges=tuple(c[0] for c in charges), measure=measure,
                 **fields)


def first_order(coords, rep, slots, zero=()):
    """First-order operator sum_N F_N d_N + sum(zero).

    ``slots`` lists ``(coordinate position, F)`` pairs; the derivative
    terms are inserted in slot order, a repeated position summing its
    fields, and the zero-order term last."""
    n = len(coords)
    terms = {}
    for pos, f in slots:
        idx = unit_index(n, pos)
        terms[idx] = fsum([terms[idx], f]) if idx in terms else f
    terms[(0,) * n] = fsum(zero, (rep.dim, rep.dim), n)
    return DiffOp(coords, rep, terms)


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
    slots = []
    for a in range(d):
        psi = fconst(rep.psi[a], n, f"psi{a + 1}")
        slots += [(a, fscale(-1j, psi)), (d + a, psi)]
    return first_order(coords, rep, slots)


def free_complex_s_charge(coords, rep, d):
    """Extra flat pair S = sqrt(2) eps_ab psi_a^k pibar_b^k (even d)."""
    if d % 2:
        raise ValueError("the flat S-pair needs even complex dimension")
    n = len(coords)
    eps = const_tensor("epsilon")
    slots = []
    for k in range(d // 2):
        for a in range(2):
            for b in range(2):
                if not eps[a, b]:
                    continue
                ia, ib = 2 * k + a, 2 * k + b
                psi = fconst(eps[a, b] * rep.psi[ia], n)
                # sqrt(2) pibar_b = -i d_x_b - d_y_b
                slots += [(ib, fscale(-1j, psi)), (d + ib, fscale(-1.0, psi))]
    return first_order(coords, rep, slots)


def free_complex(d=1):
    """Free dynamics in flat complex space: Q = sqrt(2) psi_a pi_a."""
    coords = _complex_coords(d)
    rep = complex_fermions(d)
    charges = [("Q", free_complex_charge(coords, rep, d))]
    if d % 2 == 0:
        charges.append(("S", free_complex_s_charge(coords, rep, d)))
    return assemble(
        f"free_complex(d={d})", coords, rep, charges,
        expected_algebra="N4" if d % 2 == 0 else "N2",
        recipe=(f"free_complex(d={d})",),
        default_box=((-1.0, 1.0),) * (2 * d))


def free_real_charge(coords, rep):
    """Q = p_A psi_A."""
    return first_order(coords, rep, [
        (a, fscale(-1j, fconst(rep.psi[a], len(coords), f"psi{a + 1}")))
        for a in range(len(coords))])


def free_real(D=1):
    """Free flat real dynamics, the cyclic reduction of free_complex(D)."""
    rep = complex_fermions(D)
    spec = SampleSpec(box=((-1, 1),) * (2 * D), n_points=4, seed=1)
    Q = reduce_cyclic(free_complex_charge(_complex_coords(D), rep, D),
                      [f"y{a + 1}" for a in range(D)], spec)
    return assemble(
        f"free_real(D={D})", Q.coords, rep, [("Q", Q)],
        expected_algebra="N2",
        recipe=(f"free_complex(d={D})", "reduce_cyclic(drop all y)"),
        default_box=((-1.0, 1.0),) * D)


def witten(W="x^3 - x"):
    """One-dimensional model with superpotential W: Q = psi (p + i W')."""
    coords = ("x",)
    rep = complex_fermions(1)
    w_expr = _expr(W, coords)
    wf = fexpr(w_expr, 1, "W")
    n = 1
    psi = fconst(rep.psi[0], n, "psi")
    psibar = fconst(rep.psibar[0], n, "psibar")
    wp = wf.deriv((1,))
    wpp = wf.deriv((2,))
    Q = first_order(coords, rep, [(0, fscale(-1j, psi))],
                    [fscalarmul(fscale(1j, wp), psi)])
    Qbar = first_order(coords, rep, [(0, fscale(-1j, psibar))],
                       [fscalarmul(fscale(-1j, wp), psibar)])

    # the same Q through the engine's own two operations
    q_red = rename_coords(
        reduce_cyclic(free_complex_charge(_complex_coords(1), rep, 1), ["y1"],
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
    return assemble(
        "witten", coords, rep, [("Q", Q, Qbar)],
        ops={"Q_similarity": q_sim, "H_direct": h_direct},
        expected_algebra="N2",
        recipe=("free_complex(d=1)", "reduce_cyclic(drop y1)",
                "similarity(exp(W))"),
        default_box=((-1.5, 1.5),))


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
    Q = similarity(free_complex_charge(coords, rep, d),
                   bilinear(rep, om, "pb"))
    h = fmatmul(fexp(om.conj_t()), fexp(om))
    mu = fdet(h)
    recipe = [f"free_complex(d={d})", "similarity(exp(omega psi psibar))"]
    meta = {"hermitian_metric": h}
    if W is not None:
        w_expr = _expr(W, coords)
        g_field = fsum([fexpr(w_expr, n, "W"),
                        fscale(-0.25, flog(mu))], (1, 1), n)
        Q = similarity(Q, g_field)
        recipe.append("similarity(exp(W - ln det h / 4))")
        meta["twist"] = g_field
    recipe.append("adjoint(measure = det h)")
    return assemble(
        f"dolbeault(d={d})", coords, rep, [("Q", Q)], measure=mu,
        expected_algebra="N2", recipe=tuple(recipe),
        default_box=((-0.9, 0.9),) * n, meta=meta)


def frame_charge(coords, rep, frame, connections, bar=False):
    """psi^A frame_A^N (p_N - i conn_N,BC psi_B psibar_C), one N per
    frame column.

    With bar=True builds the conjugate form psibar^A [...] (p_N
    - i conn_N,BC psibar_B psi_C).
    """
    if len(connections) != frame.shape[1]:
        raise ValueError(f"frame has {frame.shape[1]} columns but "
                         f"{len(connections)} connections")
    kind, ordering = ("psibar", "bp") if bar else ("psi", "pb")
    slots, zero = [], []
    for N in range(frame.shape[1]):
        row = fgrid([[fentry(frame, A, N) for A in range(frame.shape[0])]])
        lin = linear(rep, row, kind)
        slots.append((N, fscale(-1j, lin)))
        conn = bilinear(rep, connections[N], ordering)
        zero.append(fscale(-1j, fmatmul(lin, conn)))
    return first_order(coords, rep, slots, zero)


def geometric_charge(geo, rep, structure=None, bar=False):
    """psi^M [I_M^N] (p_N - i Omega_N,AB psi_A psibar_B) from geometry
    data, or its conjugate form with bar=True (see frame_charge)."""
    frame = geo.e if structure is None else fmatmul(geo.e, structure)
    return frame_charge(_geo_coords(geo), rep, frame, geo.spin_connection, bar)


def de_rham(omega, D, W=None, torsion=None):
    """Real sigma model; the similarity path and the spin-connection path
    are both built so their identity can be checked at samples."""
    coords = tuple(f"x{a + 1}" for a in range(D))
    rep = complex_fermions(D)
    n = D
    om = omega if hasattr(omega, "eval_jet") else _matrix_field(omega, coords)
    geo = geometry.from_omega(om)
    Q = similarity(free_real_charge(coords, rep), bilinear(rep, om, "pb"))
    q_geo = geometric_charge(geo, rep)
    qbar_geo = geometric_charge(geo, rep, bar=True)
    recipe = [f"free_real(D={D})", "similarity(exp(omega psi psibar))"]
    ops = {"Q_geometric": q_geo, "Qbar_geometric": qbar_geo}
    if W is not None:
        wf = fexpr(_expr(W, coords), n, "W")
        Q = similarity(Q, wf)
        recipe.append("similarity(exp(W))")
    if torsion is not None:
        b = torsion if hasattr(torsion, "eval_jet") else _matrix_field(torsion, coords)
        bk = fmatmul(geo.e, b, ftranspose(geo.e))
        Q = similarity(Q, bilinear(rep, bk, "pp"))
        recipe.append("similarity(exp(B psi^M psi^N))")
    recipe.append("adjoint(measure = sqrt(det g))")
    return assemble(
        f"de_rham(D={D})", coords, rep, [("Q", Q)],
        measure=geo.sqrt_det_metric(), ops=ops, expected_algebra="N2",
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
    Q = similarity(free_real_charge(coords, rep), bilinear(rep, om, "pb"))

    # direct Hadamard form: psi_D (e^om)_DC [p_C - i (e^om d_C e^-om)_AB psi psibar]
    e = fexp(om)
    einv = fexp(fscale(-1.0, om))
    q_direct = frame_charge(coords, rep, e, [
        fmatmul(e, einv.deriv(unit_index(D, C))) for C in range(D)])

    # reduction path: the same omega lifted to the complex parent space
    coords2 = _complex_coords(D)
    om2 = _matrix_field(omega, coords2)
    q_parent = similarity(free_complex_charge(coords2, rep, D),
                          bilinear(rep, om2, "pb"))
    spec2 = SampleSpec(box=((-0.9, 0.9),) * (2 * D), n_points=6, seed=23)
    q_reduced = reduce_cyclic(q_parent, [f"y{a + 1}" for a in range(D)], spec2)

    return assemble(
        f"quasicomplex(D={D})", coords, rep, [("Q", Q)],
        measure=fdet(fmatmul(e.conj_t(), e)),
        ops={"Q_direct": q_direct, "Q_reduced": q_reduced},
        expected_algebra="N2",
        recipe=(f"free_complex(d={D})", "similarity(exp(omega psi psibar))",
                "reduce_cyclic(drop all y)", "adjoint(measure = det h)"),
        default_box=((-0.9, 0.9),) * D)


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


def kahler(geo, I, omega=None):
    """Q plus one extra pair S from a complex structure.

    Q and S are the geometric charges of ``geo``.  If the geometry came
    from a symmetric omega, pass it to also build both supercharges by
    the similarity route, as Q_similarity and S_similarity, for
    comparison; the flat parent's structure is then the constant value
    of I, so I must be constant.
    """
    coords = _geo_coords(geo)
    rep = complex_fermions(geo.dim)
    f_plus, f_minus, f_zero = _structure_fields(geo, I, rep)
    ops = {"F+": f_plus, "F-": f_minus, "F0": f_zero}
    recipe = ["free_real", "geometric_charge applied to Q and S"]
    if omega is not None:
        recipe.append("similarity(exp(omega psi psibar)) applied to Q and S, "
                      "naming Q_similarity and S_similarity")
        if not isinstance(I.matrix, ConstField):
            raise ValueError("the similarity route needs a constant I")
        flat_structure = I.matrix.matrix
        r_op = bilinear(rep, omega, "pb")
        ops["Q_similarity"] = similarity(free_real_charge(coords, rep), r_op)
        s_flat = first_order(coords, rep, [
            (N, fscale(-1j, linear(
                rep, fconst(flat_structure[:, N][None, :], geo.dim), "psi")))
            for N in range(geo.dim) if np.abs(flat_structure[:, N]).max() > 0])
        ops["S_similarity"] = similarity(s_flat, r_op)
    return assemble(
        "kahler", coords, rep,
        [("Q", geometric_charge(geo, rep)),
         ("S", geometric_charge(geo, rep, I.matrix))],
        measure=geo.sqrt_det_metric(), ops=ops,
        expected_algebra="N4", recipe=tuple(recipe),
        default_box=((-0.9, 0.9),) * geo.ncoords,
        meta={"geometry": geo})


def hyperkahler(geo, triple, spec=None):
    """Q plus three extra pairs from a quaternionic triple.

    When a sample spec is given the triple is validated: a quaternion
    failure rejects the triple outright, while failing covariant
    constancy only flags the model (negative controls rely on that).
    """
    coords = _geo_coords(geo)
    rep = complex_fermions(geo.dim)
    structure_ok = True
    if spec is not None:
        geometry.require_quaternion(triple, spec)
        structure_ok = (geometry.worst_covariant_derivative(triple, geo, spec)
                        <= geometry.STRUCTURE_TOL)
    charges = [("Q", geometric_charge(geo, rep))]
    ops = {}
    for a, I in enumerate(triple, start=1):
        charges.append((f"S{a}", geometric_charge(geo, rep, I.matrix)))
        fp, fm, _f0 = _structure_fields(geo, I, rep)
        ops[f"F{a}+"] = fp
        ops[f"F{a}-"] = fm
    ops["F0"] = mult_op(fconst(rep.number_op(), geo.ncoords, "N"), coords, rep)
    return assemble(
        "hyperkahler", coords, rep, charges, measure=geo.sqrt_det_metric(),
        ops=ops, expected_algebra="N8",
        recipe=("free_real", "geometric_charge applied to Q and S^a",),
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
    Q = similarity(free_complex_charge(coords, rep, d), r_op)
    S = similarity(free_complex_s_charge(coords, rep, d), r_op)

    ff = ScalarFnField("exp", gf)
    num = fconst(rep.number_op(), n, "N")
    eps = const_tensor("epsilon")

    def direct(bar_momentum):
        slots, zero = [], []
        for a in range(d):
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
            slots += [(a, fscale(sx, psi_a)), (d + a, fscale(sy, psi_a))]
            dx = ff.deriv(unit_index(n, a))
            dy = ff.deriv(unit_index(n, d + a))
            sgn = -1j if bar_momentum else 1j
            da_f = fsum([dx, fscale(sgn * 1j * (-1j), dy)], (1, 1), n)
            # da_f = dx + i dy (holomorphic case) or dx - i dy (conjugate)
            zero.append(fscale(1j, fmatmul(
                fscalarmul(da_f, fconst(mat, n)), num)))
        return first_order(coords, rep, slots, zero)

    q_direct = direct(bar_momentum=False)
    s_direct = direct(bar_momentum=True)

    # measure pinned by N=4 closure: only e^{-2g} = (det g_4d)^(1/4) makes
    # {Q, Sbar} vanish and {S, Sbar} = {Q, Qbar}; det h fails.
    return assemble(
        "hkt_conformal", coords, rep, [("Q", Q), ("S", S)],
        measure=ScalarFnField("exp", fscale(-2.0, gf)),
        ops={"Q_direct": q_direct, "S_direct": s_direct},
        expected_algebra="N4",
        recipe=("free_complex(d=2) with S-pair",
                "similarity(exp(g psi_a psibar_a))",
                "adjoint(measure = e^{-2g})"),
        default_box=((-0.8, 0.8),) * n)


def okt_flat():
    """Eight Hermitian supercharges on flat R^8 from the seven gammas."""
    D = 8
    coords = tuple(f"x{a + 1}" for a in range(D))
    rep = hermitian_fermions(D)
    gammas = const_tensor("gamma7")
    ops = {"Q0": free_real_charge(coords, rep)}
    for g_idx, g in enumerate(gammas):
        ops[f"S{g_idx + 1}"] = first_order(coords, rep, [
            (a, fscale(-1j, fconst(sum(g[a, b] * rep.psi[b] for b in range(D)), D)))
            for a in range(D)])
    charges = tuple(ops)
    ops["H"] = compose(ops["Q0"], ops["Q0"])
    return Model(
        name="okt_flat", coords=coords, rep=rep, ops=ops, charges=charges,
        expected_algebra="N8-hermitian",
        recipe=("free_real(D=8), Hermitian fermion presentation",),
        default_box=((-1.0, 1.0),) * D)


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
        slots, zero = [], []
        smat = sigma_dag if dag else sigma
        for mu in range(4):
            if dag:
                mat = sum(smat[mu][b, alpha] * rep.psi[b] for b in range(2))
            else:
                mat = sum(smat[mu][alpha, b] * rep.psibar[b] for b in range(2))
            cm = fconst(mat, n)
            slots.append((mu, fscale(-1j, cm)))
            if not isinstance(a_fields[mu], ZeroField):
                zero.append(fscale(-1.0, fmatmul(cm, a_fields[mu])))
        return first_order(coords, rep, slots, zero)

    charges = [(f"Q{alpha + 1}", charge(alpha, dag=False),
                charge(alpha, dag=True)) for alpha in range(2)]

    # L^a = 2 t^a - i eta^a_{mu nu} (x_mu d_nu + psi sigma^+_mu sigma_nu psibar / 4)
    constraints = {}
    for a in range(3):
        slots = []
        zero = [fconst(2.0 * rep.color[a], n)]
        ferm = np.zeros((2, 2), dtype=complex)
        for mu in range(4):
            for nu in range(4):
                if not eta[a, mu, nu]:
                    continue
                sc = fexpr(Const(-1j * eta[a, mu, nu]) * xs[mu], n)
                slots.append((nu, fscalarmul(sc, fidentity(rep.dim, n))))
                ferm += eta[a, mu, nu] * (sigma_dag[mu] @ sigma[nu])
        zero.append(fscale(-1j / 4.0, bilinear(rep, fconst(ferm, n), "pb")))
        constraints[f"L{a + 1}"] = first_order(coords, rep, slots, zero)

    return assemble(
        "instanton", coords, rep, charges, h_pairs=2, ops=constraints,
        expected_algebra="N4",
        recipe=("free_complex(d=2) x color", "self-dual gauge rotation",),
        default_box=((-1.2, 1.2),) * 4)


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

    slots, zero = [], []
    for a in range(3):
        psi = fconst(rep.psi[a], n, f"psi{a + 1}")
        psibar = fconst(rep.psibar[a], n, f"psibar{a + 1}")
        # Pi_-^a psi^a = (-i d_1 - d_2) psi^a
        slots += [(2 * a, fscale(-1j, psi)), (2 * a + 1, fscale(-1.0, psi))]
        zero.append(fscalarmul(fscale(1j, fexpr(b_expr(a), n, f"B{a + 1}")), psibar))
    Q = first_order(coords, rep, slots, zero)

    ops = {}
    for a in range(3):
        slots_g = []
        ferm = np.zeros((rep.dim, rep.dim), dtype=complex)
        for b in range(3):
            for c in range(3):
                if not eps3[a, b, c]:
                    continue
                for j in range(2):
                    sc = fexpr(Const(-1j * eps3[a, b, c]) * a_var[b][j], n)
                    slots_g.append((2 * c + j,
                                    fscalarmul(sc, fidentity(rep.dim, n))))
                ferm += -1j * eps3[a, b, c] * (rep.psi[b] @ rep.psibar[c])
        ops[f"G{a + 1}"] = first_order(coords, rep, slots_g,
                                       [fconst(ferm, n)])

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
    ops["H_direct"] = (DiffOp(coords, rep, h_terms)
                       + DiffOp(coords, rep, {(0,) * n: h_zero}))

    a_minus_fields = {a: fexpr(a_var[a][0] - Const(1j) * a_var[a][1], n)
                      for a in range(3)}
    return assemble(
        "gauge_sym3", coords, rep, [("Q", Q)], ops=ops,
        expected_algebra="gauge",
        recipe=("dimensional reduction of (2+1) SU(2) gauge theory",),
        default_box=((-1.0, 1.0),) * 6,
        meta={"a_minus": a_minus_fields})


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

    exclusions = (
        Exclusion(_expr("a-b", coords), 0.15),
        Exclusion(_expr("a+b", coords), 0.15),
        Exclusion(_expr("a", coords), 0.15),
        Exclusion(_expr("b", coords), 0.15),
    )
    return assemble(
        "gauge_sym3_resolved", coords, rep, [("Qcov", mk(+1), mk(-1))],
        expected_algebra="exploratory",
        recipe=("gauge_sym3", "polar decomposition, gauge fixed",
                "hamiltonian reduction by Gauss constraints"),
        default_box=((1.0, 2.0), (0.2, 0.8), (0.0, 6.28)),
        default_exclusions=exclusions)


def mode_label(vec):
    """The name of a Wess-Zumino mode in coordinate and operator names."""
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
    coords = tuple(f"f{i}_{mode_label(m)}" for m in modes for i in (1, 2))
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

    # per-mode eigen machinery
    h_direct = zero_op(coords, rep)
    p_ops = {j: zero_op(coords, rep) for j in range(3)}
    ops = {}
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
        ops[f"H_{mode_label(mvec)}"] = h_k

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
        ops[f"Qcal_{mode_label(mvec)}"] = qcal_k
        qcal = qcal + qcal_k
        qcal0 = qcal0 + (compose(mult_op(fconst(c_ops[0], n), coords, rep), p_op(k, 1))
                         + compose(mult_op(fconst(c_ops[1], n), coords, rep), p_op(k, 2)))
        w_k = Const(math.pi * lam) * (f_coord[(k, 1)] * f_coord[(k, 1)]
                                      - f_coord[(k, 2)] * f_coord[(k, 2)])
        w_total = w_k if w_total is None else w_total + w_k

    ops.update({
        "H_direct": h_direct,
        "P1": p_ops[0], "P2": p_ops[1], "P3": p_ops[2],
        "Qcal": qcal, "Qcal0": qcal0,
    })
    return assemble(
        f"wz_modes({len(modes)})", coords, rep,
        [("Q1", q_terms[0]), ("Q2", q_terms[1])], h_pairs=2, ops=ops,
        expected_algebra="central",
        recipe=("wess-zumino mode truncation",
                "eigenmode supercharges, similarity from free"),
        default_box=((-1.0, 1.0),) * n,
        meta={"modes": modes, "superpotential": w_total})


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
    name = model.charges[0]
    return assemble(
        f"{model.name}+torsion({kind})", model.coords, rep,
        [(name, similarity(model.op(name), r_op))],
        measure=model.measure, expected_algebra="N2",
        recipe=model.recipe + (f"similarity(exp({kind} bilinear))",),
        default_box=model.default_box,
        default_exclusions=model.default_exclusions)


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
    return geometry.from_omega(om), om


def kahler_warped(u="0.3*sin(x1) + 0.2*x2^2"):
    """Warped product metric e^{2u}((dx1)^2+(dx2)^2) + (dx3)^2 + (dx4)^2
    with the block complex structure pairing (1,2) and (3,4).

    Kahler iff u is independent of x3, x4; a u depending on x3 serves as
    the negative control (covariant constancy and the extended algebra
    then fail)."""
    geo, om = _warped_geometry(u)
    I = geometry.constant_structure(geometry.kahler_block_structure(4), 4)
    return kahler(geo, I, omega=om)


def hyperkahler_flat(D=4):
    """Flat space with the canonical quaternionic triple: N=8 exactly."""
    nc = D
    zgrid = fgrid([[ZeroField((1, 1), nc)] * D] * D)
    geo = geometry.from_omega(zgrid)
    trio = [geometry.constant_structure(c, nc, label=a + 1)
            for a, c in enumerate(geometry.canonical_triple(D))]
    return hyperkahler(geo, trio)


GH_BOX = ((0.6, 1.4), (0.6, 1.4), (0.6, 1.4), (-1.0, 1.0))


def hyperkahler_gibbons_hawking(centers=((0.0, 0.0, 0.0),), weights=(0.5,),
                                eps=1.0, box=GH_BOX, seed=0):
    """Gibbons-Hawking metric with the covariantly constant 't Hooft
    orientation auto-selected; the sample box must avoid the centers and
    the gauge strings on the negative x3-axis below them."""
    geo, _v, _a = geometry.gibbons_hawking(
        [tuple(c) for c in centers], list(weights), eps)
    sel_spec = SampleSpec(box=tuple(tuple(b) for b in box), n_points=6, seed=seed)
    trio, variant = geometry.select_orientation(geo, sel_spec)
    m = hyperkahler(geo, trio)
    return replace(
        m, name="hyperkahler_gh",
        recipe=m.recipe + (f"orientation {variant} selected",),
        default_box=tuple(tuple(b) for b in box),
        meta={**m.meta, "orientation": variant})


def hyperkahler_kahler_control(u="0.3*sin(x1) + 0.2*x2^2"):
    """Negative control: warped Kahler metric with the flat canonical
    triple; only one structure is covariantly constant, so parts of the
    N=8 algebra must fail."""
    geo, _om = _warped_geometry(u)
    trio = [geometry.constant_structure(c, 4, label=a + 1)
            for a, c in enumerate(geometry.canonical_triple(4))]
    spec = SampleSpec(box=((-0.9, 0.9),) * 4, n_points=6, seed=3)
    return hyperkahler(geo, trio, spec=spec)


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
