"""Vielbein, metric, connection, and complex-structure machinery.

Index conventions (fixed throughout the package):

* the vielbein field ``e`` is indexed ``e[A, M]`` = e^M_A (frame row,
  world column); for exponential vielbeins e^M_A = (e^omega)_A^M,
* the inverse vielbein ``einv`` is indexed ``einv[M, A]`` = e_{MA},
* the metric is g_MN = sum_A e_{MA} e_{NA}; for (real or Hermitian)
  omega this equals (e^{-2 omega})_{MN},
* Christoffels come from the metric in the standard Levi-Civita form,
* the spin connection is
      Omega_{M,AB} = e_{AN} (d_M e^N_B + Gamma^N_MK e^K_B),
* a complex structure is stored with mixed indices, I[M, N] = I_M^N;
  the lowered two-form is I_MN = (I g)[M, N].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford
from .diffop import sampled_residual, unit_index
from .expr import Coord, Const
from .fields import (EvalContext, ZeroField, fconj_t, fconst, fderiv, fdet,
                     fentry, fexp, fexpr, fgrid, fidentity, finv, fmatmul,
                     fpow, fscale, fsum, ftranspose)
from .report import make_report


@dataclass(frozen=True)
class GeometryData:
    """Vielbein plus everything derived from it, as lazy fields."""

    dim: int
    ncoords: int
    e: object                 # e[A, M]
    einv: object              # einv[M, A]
    metric: object            # g[M, N] or None
    metric_inv: object
    christoffel: tuple        # christoffel[N] is the matrix field [M, K]
    spin_connection: tuple    # spin_connection[M] is the matrix field [A, B]
    hermitian_metric: object = None   # complex case: h = e^{omega^+} e^omega
    kind: str = "real_symmetric"
    christoffel_entries: dict = None  # scalar fields keyed (N, M, K)

    def sqrt_det_metric(self):
        return fpow(fdet(self.metric), 1, 2)


@dataclass(frozen=True)
class ComplexStructure:
    """Mixed-index complex structure I_M^N as a matrix field."""

    matrix: object
    label: int = 0

    @property
    def dim(self):
        return self.matrix.shape[0]


def _christoffel_entries(g, ginv, dim, ncoords):
    """Scalar fields Gamma^N_MK keyed (N, M, K), symmetric in (M, K)."""
    dg = {}

    def dg_of(p, a, b):
        key = (p, a, b)
        if key not in dg:
            dg[key] = fderiv(fentry(g, a, b), unit_index(ncoords, p))
        return dg[key]

    entries = {}
    for n in range(dim):
        for m in range(dim):
            for k in range(m, dim):
                parts = []
                for s in range(dim):
                    inner = fsum([dg_of(m, s, k), dg_of(k, s, m),
                                  fscale(-1.0, dg_of(s, m, k))],
                                 (1, 1), ncoords)
                    if isinstance(inner, ZeroField):
                        continue
                    parts.append(fmatmul(fentry(ginv, n, s), inner))
                val = fscale(0.5, fsum(parts, (1, 1), ncoords))
                entries[(n, m, k)] = val
                entries[(n, k, m)] = val
    return entries


def _christoffel_matrices(entries, dim):
    """christoffel[N][M, K] matrix fields from the scalar entry table."""
    return tuple(
        fgrid([[entries[(n, m, k)] for k in range(dim)] for m in range(dim)])
        for n in range(dim))


def _gamma_slice(entries, dim, p):
    """Matrix field G[S, M] = Gamma^S_{PM} for fixed lower index P."""
    return fgrid([[entries[(s, p, m)] for m in range(dim)] for s in range(dim)])


def _spin_connection(e, einv, entries, dim, ncoords):
    """Omega[M][A, B] = sum_N einv[N, A] (d_M e[B, N] + sum_K Gamma^N_MK e[B, K])."""
    omegas = []
    for m in range(dim):
        de = fderiv(e, unit_index(ncoords, m))
        # first part: sum_N einv[N,A] dM e[B,N] = (de . einv)^T [A, B]
        part1 = ftranspose(fmatmul(de, einv))
        # second: sum_{N,K} einv[N,A] Gamma^N_MK e[B,K] = (einv^T Gamma_M e^T)[A, B]
        gm = fgrid([[entries[(n, m, k)] for k in range(dim)]
                    for n in range(dim)])
        part2 = fmatmul(ftranspose(einv), gm, ftranspose(e))
        omegas.append(fsum([part1, part2], (dim, dim), ncoords))
    return tuple(omegas)


def from_omega(omega, kind="real_symmetric"):
    """Geometry generated by a vielbein exponent, e = e^omega.

    real_symmetric / hermitian: omega is D x D over D coordinates and the
    metric is (e^{-2 omega})_MN (complex Hermitian when omega is).
    complex_dolbeault: omega is d x d over 2d real coordinates; only the
    complex vielbein and the Hermitian metric h = e^{omega^+} e^omega are
    populated.
    """
    dim = omega.shape[0]
    if omega.shape[1] != dim:
        raise ValueError("omega must be square")
    ncoords = omega.ncoords
    if kind in ("real_symmetric", "hermitian"):
        if ncoords != dim:
            raise ValueError(f"{kind} geometry needs dim == ncoords")
        e = fexp(omega)
        einv = fexp(fscale(-1.0, omega))
        g = fexp(fscale(-2.0, omega))
        ginv = fexp(fscale(2.0, omega))
        entries = _christoffel_entries(g, ginv, dim, ncoords)
        return GeometryData(
            dim=dim, ncoords=ncoords, e=e, einv=einv, metric=g,
            metric_inv=ginv,
            christoffel=_christoffel_matrices(entries, dim),
            spin_connection=_spin_connection(e, einv, entries, dim, ncoords),
            kind=kind, christoffel_entries=entries)
    if kind == "complex_dolbeault":
        if ncoords != 2 * dim:
            raise ValueError("complex geometry needs 2*dim real coordinates")
        e = fexp(omega)
        h = fmatmul(fexp(fconj_t(omega)), fexp(omega))
        return GeometryData(
            dim=dim, ncoords=ncoords, e=e, einv=fexp(fscale(-1.0, omega)),
            metric=None, metric_inv=None, christoffel=(), spin_connection=(),
            hermitian_metric=h, kind=kind)
    raise ValueError(f"unknown geometry kind {kind!r}")


def from_vielbein(einv):
    """Geometry from an explicit inverse vielbein field einv[M, A] = e_{MA}."""
    dim = einv.shape[0]
    if einv.shape[1] != dim:
        raise ValueError("vielbein must be square")
    ncoords = einv.ncoords
    e = finv(einv)
    g = fmatmul(einv, ftranspose(einv))
    ginv = fmatmul(ftranspose(e), e)
    entries = _christoffel_entries(g, ginv, dim, ncoords)
    return GeometryData(
        dim=dim, ncoords=ncoords, e=e, einv=einv, metric=g, metric_inv=ginv,
        christoffel=_christoffel_matrices(entries, dim),
        spin_connection=_spin_connection(e, einv, entries, dim, ncoords),
        kind="vielbein", christoffel_entries=entries)


# ---------------------------------------------------------------------------
# complex structures


def canonical_triple(D, variant="eta"):
    """Canonical quaternionic triple on flat R^D, D = 4m: diag(-eta^a, ...).

    The minus sign matters: as matrices the raw 't Hooft symbols obey
    eta^a eta^b = -delta^ab - eps^abc eta^c, so it is the flipped copies
    -eta^a (and likewise -etabar^a) that satisfy the quaternion algebra
    I^a I^b = -delta^ab + eps^abc I^c exactly.
    """
    if D % 4:
        raise ValueError("quaternionic triples need D divisible by 4")
    eta = clifford.const_tensor(variant)
    out = []
    for a in range(3):
        blocks = np.zeros((D, D))
        for b in range(D // 4):
            blocks[4 * b:4 * b + 4, 4 * b:4 * b + 4] = -eta[a]
        out.append(blocks)
    return out


def kahler_block_structure(D):
    """Constant I pairing coordinates (1,2), (3,4), ...; I = diag(-eps)."""
    if D % 2:
        raise ValueError("need even dimension")
    eps = clifford.const_tensor("epsilon")
    out = np.zeros((D, D))
    for b in range(D // 2):
        out[2 * b:2 * b + 2, 2 * b:2 * b + 2] = -eps
    return out


def frame_structure(geo, frame_matrix, label=0):
    """Curved structure I = einv . A . e from a constant frame matrix A."""
    const = fconst(frame_matrix, geo.ncoords)
    return ComplexStructure(fmatmul(geo.einv, const, geo.e), label)


def constant_structure(matrix, ncoords, label=0):
    return ComplexStructure(fconst(matrix, ncoords), label)


def lowered(I, geo):
    """Two-form I_MN = (I g)[M, N]."""
    return fmatmul(I.matrix, geo.metric)


def covariant_derivative_fields(I, geo):
    """Matrix fields D_P I_MN for each P (Levi-Civita, lowered indices)."""
    dim, nc = geo.dim, geo.ncoords
    ilow = lowered(I, geo)
    entries = geo.christoffel_entries
    out = []
    for p in range(dim):
        gp = _gamma_slice(entries, dim, p)
        d_ilow = fderiv(ilow, unit_index(nc, p))
        term2 = fscale(-1.0, fmatmul(ftranspose(gp), ilow))
        term3 = fscale(-1.0, fmatmul(ilow, gp))
        out.append(fsum([d_ilow, term2, term3], (dim, dim), nc))
    return out


def check_complex_structure(I, geo, spec, expected="pass"):
    """Reports for I^2 = -1, antisymmetry of I_MN, and covariant constancy."""
    dim, nc = geo.dim, geo.ncoords
    sq = fsum([fmatmul(I.matrix, I.matrix), fidentity(dim, nc)], (dim, dim), nc)
    ilow = lowered(I, geo)
    asym = fsum([ilow, ftranspose(ilow)], (dim, dim), nc)
    r_sq, r_asym, r_cov = sampled_residual(
        [[sq], [asym], covariant_derivative_fields(I, geo)], spec)
    tag = f"I{I.label}" if I.label else "I"
    return [
        make_report(f"{tag}^2 = -1", r_sq, spec),
        make_report(f"{tag}_MN antisymmetric", r_asym, spec),
        make_report(f"cov-const {tag}", r_cov, spec, expected=expected),
    ]


def check_quaternion(i1, i2, i3, spec, ncoords=None, expected="pass"):
    """Residual of I^a I^b = -delta^ab + eps^abc I^c over all nine products."""
    trio = (i1, i2, i3)
    dim = trio[0].dim
    nc = ncoords if ncoords is not None else trio[0].matrix.ncoords
    eps = clifford.const_tensor("epsilon3")
    fields = []
    for a in range(3):
        for b in range(3):
            parts = [fmatmul(trio[a].matrix, trio[b].matrix)]
            if a == b:
                parts.append(fidentity(dim, nc))
            for c in range(3):
                if eps[a, b, c]:
                    parts.append(fscale(-eps[a, b, c], trio[c].matrix))
            fields.append(fsum(parts, (dim, dim), nc))
    r, = sampled_residual([fields], spec)
    return make_report("quaternion algebra", r, spec, expected=expected)


def metric_compatibility_fields(geo):
    """Matrix fields D_P g_MN (should vanish for Levi-Civita)."""
    dim, nc = geo.dim, geo.ncoords
    entries = geo.christoffel_entries
    out = []
    for p in range(dim):
        gp = _gamma_slice(entries, dim, p)
        term = fsum([
            fderiv(geo.metric, unit_index(nc, p)),
            fscale(-1.0, fmatmul(ftranspose(gp), geo.metric)),
            fscale(-1.0, fmatmul(geo.metric, gp)),
        ], (dim, dim), nc)
        out.append(term)
    return out


# ---------------------------------------------------------------------------
# Gibbons-Hawking metrics


def gibbons_hawking(centers, weights, eps=1.0):
    """4d Gibbons-Hawking geometry V dx^2 + V^-1 (dx4 + A.dx)^2.

    V = eps + sum_i w_i / |x - c_i| with curl A = grad V.  The vector
    potential uses the standard gauge whose Dirac string runs along the
    negative x3-axis below each center; sample boxes must stay clear of
    the strings and the centers.  Returns (geometry, V expr, A exprs).
    """
    if len(centers) != len(weights):
        raise ValueError("need one weight per center")
    nc = 4
    x = [Coord(i, n) for i, n in enumerate(("x1", "x2", "x3", "x4"))]
    v = Const(eps)
    a_x = Const(0.0)
    a_y = Const(0.0)
    for (cx, cy, cz), w in zip(centers, weights):
        dx, dy, dz = x[0] - cx, x[1] - cy, x[2] - cz
        r = (dx * dx + dy * dy + dz * dz) ** (1, 2)
        rho2 = dx * dx + dy * dy
        v = v + Const(w) / r
        u = Const(1.0) - dz / r
        a_x = a_x + Const(w) * dy * u / rho2
        a_y = a_y - Const(w) * dx * u / rho2
    a = (a_x, a_y, Const(0.0))

    from .fields import PositiveGuardField

    vf = PositiveGuardField(fexpr(v, nc, "V"), "Gibbons-Hawking potential V")
    sqrt_v = fpow(vf, 1, 2)
    inv_sqrt_v = fpow(vf, -1, 2)
    zero = ZeroField((1, 1), nc)
    rows = []
    for m in range(3):
        row = [sqrt_v if a_idx == m else zero for a_idx in range(3)]
        row.append(fmatmul(fexpr(a[m], nc, f"A{m + 1}"), inv_sqrt_v))
        rows.append(row)
    rows.append([zero, zero, zero, inv_sqrt_v])
    einv = fgrid(rows)
    geo = from_vielbein(einv)
    return geo, v, a


def select_orientation(geo, spec, tol=1e-8):
    """Pick the 't Hooft orientation whose triple is covariantly constant.

    Tries eta- and eta_bar-built frame triples; returns (triple, variant).
    Raises if neither orientation passes, which is the expected outcome
    for metrics that are not hyper-Kahler.
    """
    best = None
    for variant in ("eta", "eta_bar"):
        consts = canonical_triple(geo.dim, variant)
        trio = [frame_structure(geo, c, label=a + 1)
                for a, c in enumerate(consts)]
        worst = 0.0
        for r in sampled_residual(
                [covariant_derivative_fields(s, geo) for s in trio], spec):
            worst = max(worst, r.max_abs / (1.0 + r.scale))
        if worst <= tol:
            return trio, variant
        if best is None or worst < best[0]:
            best = (worst, variant)
    raise ValueError(
        f"no covariantly constant orientation (best {best[1]}: {best[0]:.3e})")


def pointwise_symmetric_omega(einv, point):
    """Diagnostic polar extraction: symmetric log-vielbein at one point.

    Splits off the tangent-space rotation of the vielbein value and
    returns omega with e^{-omega} equal to the symmetric polar factor.
    """
    val = einv.eval_jet(EvalContext(point), 0)[:, :, 0]
    u, s, vt = np.linalg.svd(val)
    sym = (u * s) @ u.conj().T          # polar: val = sym . (u vt)
    w, vecs = np.linalg.eigh((sym + sym.conj().T) / 2)
    if np.any(w <= 0):
        raise ValueError("vielbein polar factor not positive definite")
    return -vecs @ np.diag(np.log(w)) @ vecs.conj().T
