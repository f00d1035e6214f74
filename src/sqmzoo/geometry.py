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
from .fields import (EvalContext, ZeroField, fconst, fdet, fentry, fexp,
                     fexpr, fgrid, fidentity, finv, fmatmul, fpow, fscale,
                     fsum, ftranspose)
from .report import make_report

# largest covariant derivative of a complex structure, relative to
# 1 + its scale, at which the structure counts as covariantly constant
STRUCTURE_TOL = 1e-8


@dataclass(frozen=True)
class GeometryData:
    """Vielbein plus everything derived from it, as lazy fields."""

    dim: int
    ncoords: int
    e: object                 # e[A, M]
    einv: object              # einv[M, A]
    metric: object            # g[M, N]
    christoffel: tuple        # christoffel[N] is the matrix field [M, K]
    spin_connection: tuple    # spin_connection[M] is the matrix field [A, B]
    christoffel_entries: dict  # scalar fields keyed (N, M, K)

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
            dg[key] = fentry(g, a, b).deriv(unit_index(ncoords, p))
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
        de = e.deriv(unit_index(ncoords, m))
        # first part: sum_N einv[N,A] dM e[B,N] = (de . einv)^T [A, B]
        part1 = ftranspose(fmatmul(de, einv))
        # second: sum_{N,K} einv[N,A] Gamma^N_MK e[B,K] = (einv^T Gamma_M e^T)[A, B]
        gm = _gamma_slice(entries, dim, m)
        part2 = fmatmul(ftranspose(einv), gm, ftranspose(e))
        omegas.append(fsum([part1, part2], (dim, dim), ncoords))
    return tuple(omegas)


def from_omega(omega):
    """Geometry generated by a real symmetric vielbein exponent, e =
    e^omega: omega is D x D over D coordinates and the metric is
    (e^{-2 omega})_MN."""
    dim = omega.shape[0]
    if omega.shape[1] != dim:
        raise ValueError("omega must be square")
    ncoords = omega.ncoords
    if ncoords != dim:
        raise ValueError("geometry from omega needs dim == ncoords")
    e = fexp(omega)
    einv = fexp(fscale(-1.0, omega))
    g = fexp(fscale(-2.0, omega))
    ginv = fexp(fscale(2.0, omega))
    entries = _christoffel_entries(g, ginv, dim, ncoords)
    return GeometryData(
        dim=dim, ncoords=ncoords, e=e, einv=einv, metric=g,
        christoffel=_christoffel_matrices(entries, dim),
        spin_connection=_spin_connection(e, einv, entries, dim, ncoords),
        christoffel_entries=entries)


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
        dim=dim, ncoords=ncoords, e=e, einv=einv, metric=g,
        christoffel=_christoffel_matrices(entries, dim),
        spin_connection=_spin_connection(e, einv, entries, dim, ncoords),
        christoffel_entries=entries)


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


def _covariant_derivative(t, geo):
    """Matrix fields D_P T_MN = d_P T - Gamma_P^T T - T Gamma_P for each P,
    for a two-index tensor T with both indices lowered."""
    dim, nc = geo.dim, geo.ncoords
    out = []
    for p in range(dim):
        gp = _gamma_slice(geo.christoffel_entries, dim, p)
        out.append(fsum([t.deriv(unit_index(nc, p)),
                         fscale(-1.0, fmatmul(ftranspose(gp), t)),
                         fscale(-1.0, fmatmul(t, gp))], (dim, dim), nc))
    return out


def covariant_derivative_fields(I, geo):
    """Matrix fields D_P I_MN for each P (Levi-Civita, lowered indices)."""
    return _covariant_derivative(lowered(I, geo), geo)


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


def check_quaternion(i1, i2, i3, spec, expected="pass"):
    """Residual of I^a I^b = -delta^ab + eps^abc I^c over all nine products."""
    trio = (i1, i2, i3)
    dim = trio[0].dim
    nc = trio[0].matrix.ncoords
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


def require_quaternion(triple, spec):
    """Raise ValueError unless ``triple`` passes :func:`check_quaternion`."""
    qrep = check_quaternion(*triple, spec)
    if not qrep.ok:
        raise ValueError(f"triple fails the quaternion algebra: {qrep.line()}")


def metric_compatibility_fields(geo):
    """Matrix fields D_P g_MN (should vanish for Levi-Civita)."""
    return _covariant_derivative(geo.metric, geo)


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


def worst_covariant_derivative(triple, geo, spec):
    """Largest ``relative`` residual of the covariant derivatives of the
    structures in ``triple`` at the points of ``spec``: the one number
    compared with STRUCTURE_TOL, and inf when any of them is NaN or
    infinite."""
    return max(r.relative for r in sampled_residual(
        [covariant_derivative_fields(s, geo) for s in triple], spec))


def select_orientation(geo, spec):
    """Pick the 't Hooft orientation whose triple is covariantly constant.

    Tries eta- and eta_bar-built frame triples and returns (triple,
    variant) for the first whose worst_covariant_derivative at the
    points of ``spec`` is at most STRUCTURE_TOL, after checking its
    quaternion algebra there.  A NaN or infinite covariant derivative
    never passes.  Raises if neither orientation passes, which is the
    expected outcome for metrics that are not hyper-Kahler.
    """
    best = None
    for variant in ("eta", "eta_bar"):
        consts = canonical_triple(geo.dim, variant)
        trio = [frame_structure(geo, c, label=a + 1)
                for a, c in enumerate(consts)]
        worst = worst_covariant_derivative(trio, geo, spec)
        if worst <= STRUCTURE_TOL:
            require_quaternion(trio, spec)
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
