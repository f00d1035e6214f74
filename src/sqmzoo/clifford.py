"""Finite matrix representations of fermions and fixed numeric tensors.

Complex fermions psi_a act on a 2^d Fock space built by Jordan-Wigner
with a_1 outermost: psi_1 = c (x) 1 (x) ... , psi_2 = Z (x) c (x) 1 ...,
where c = [[0,0],[1,0]] creates in the (1, psi) ordering of each factor
and Z = diag(1,-1) carries the anticommutation string.  psi-bar is the
conjugate transpose.  Hermitian fermions psi_A = gamma_A / sqrt(2) use
the standard Pauli chain gamma basis: gamma_{2k-1} = Z^(k-1) (x) X (x) 1,
gamma_{2k} = Z^(k-1) (x) Y (x) 1.

An optional color factor tensors every fermion operator with the
identity on the right; color generators act as identity on the Fock
factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .fields import ConstField, Field, ZeroField, fconst
from .jets import _perm_sign, join_points, split_points

FOCK_DIM_CAP = 4096

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_C = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # multiplication by psi
_I2 = np.eye(2, dtype=np.complex128)


def _chain(factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


@dataclass(frozen=True, eq=False)
class FermionRep:
    """Matrix representation of d complex or D Hermitian fermions.

    There is one representation per fermion system:
    :func:`complex_fermions`, :func:`hermitian_fermions` and
    :func:`realify` return the same object for the same arguments, and
    its arrays are read-only.
    Two representations are equal only when they are one object, so a
    field node keyed by its representation compares it by identity."""

    kind: str                      # "complex" | "hermitian"
    n: int                         # d (complex) or D (hermitian)
    fock_dim: int
    color_dim: int = 1
    psi: tuple = field(default=(), repr=False)       # operators, color included
    psibar: tuple = field(default=(), repr=False)    # complex kind only
    color: tuple = field(default=(), repr=False)     # color generators

    def __post_init__(self):
        for op in self.psi + self.psibar + self.color:
            op.flags.writeable = False

    @property
    def dim(self):
        return self.fock_dim * self.color_dim

    def number_op(self):
        if self.kind == "complex":
            return sum(p @ pb for p, pb in zip(self.psi, self.psibar))
        # Hermitian pairs (psi_{2a-1}, psi_{2a}) recombine into complex modes
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for a in range(self.n // 2):
            p = (self.psi[2 * a] - 1j * self.psi[2 * a + 1]) / np.sqrt(2)
            out += p @ p.conj().T
        return out


def complex_fermions(d, color_dim=1):
    """Jordan-Wigner representation of d complex fermion pairs, one
    object per ``(d, color_dim)``."""
    return _jordan_wigner(d, color_dim)


@cache
def _jordan_wigner(d, color_dim):
    if d < 1:
        raise ValueError("need at least one fermion")
    if 2 ** d > FOCK_DIM_CAP:
        raise ValueError(f"Fock dimension 2^{d} exceeds cap {FOCK_DIM_CAP}")
    ops = []
    for a in range(d):
        factors = [_Z] * a + [_C] + [_I2] * (d - a - 1)
        ops.append(_chain(factors))
    if color_dim > 1:
        eye_c = np.eye(color_dim)
        ops = [np.kron(op, eye_c) for op in ops]
    psi = tuple(ops)
    psibar = tuple(op.conj().T for op in ops)
    color = _color_generators(2 ** d, color_dim)
    return FermionRep("complex", d, 2 ** d, color_dim, psi, psibar, color)


def hermitian_fermions(D):
    """D Hermitian fermions psi_A = gamma_A / sqrt(2), {psi_A, psi_B} = delta,
    one object per D."""
    return _gamma_chain(D)


@cache
def _gamma_chain(D):
    if D % 2 != 0:
        raise ValueError("hermitian fermion count must be even")
    if D > 16:
        raise ValueError("hermitian fermion count capped at 16")
    m = D // 2
    gammas = []
    for k in range(m):
        pre = [_Z] * k
        post = [_I2] * (m - k - 1)
        gammas.append(_chain(pre + [_X] + post))
        gammas.append(_chain(pre + [_Y] + post))
    psi = tuple(g / np.sqrt(2.0) for g in gammas)
    return FermionRep("hermitian", D, 2 ** m, 1, psi, (), ())


def realify(rep):
    """Split d complex fermions into 2d Hermitian ones on the same space,
    one object per ``rep``.

    psi_{2a-1} = (psi_a + psibar_a)/sqrt(2), psi_{2a} = i(psi_a - psibar_a)/sqrt(2).
    """
    return _realify(rep)


@cache
def _realify(rep):
    if rep.kind != "complex":
        raise ValueError("realify expects a complex-kind representation")
    herm = []
    for p, pb in zip(rep.psi, rep.psibar):
        herm.append((p + pb) / np.sqrt(2.0))
        herm.append(1j * (p - pb) / np.sqrt(2.0))
    return FermionRep("hermitian", 2 * rep.n, rep.fock_dim, rep.color_dim,
                      tuple(herm), (), rep.color)


def _color_generators(fock_dim, color_dim):
    """su(2) generators sigma/2 on the color factor (color_dim == 2 only)."""
    if color_dim == 1:
        return ()
    if color_dim != 2:
        raise ValueError("only color_dim 2 (spin-1/2 color) is provided")
    eye_f = np.eye(fock_dim)
    return tuple(np.kron(eye_f, s / 2.0) for s in (_X, _Y, _Z))


# ---------------------------------------------------------------------------
# constant tensors


def _thooft(sign):
    """'t Hooft symbols: eta^a_{bc} = eps_{abc}, eta^a_{b4} = sign*delta_ab."""
    eta = np.zeros((3, 4, 4))
    eps = levi_civita(3)
    for a in range(3):
        eta[a, :3, :3] = eps[a]
        for b in range(3):
            eta[a, b, 3] = sign * (1.0 if a == b else 0.0)
            eta[a, 3, b] = -sign * (1.0 if a == b else 0.0)
    return eta


def levi_civita(n):
    """Totally antisymmetric epsilon with eps[0,1,...,n-1] = 1."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = _perm_sign(perm)
    return eps


def _gamma7():
    """Seven real antisymmetric 8x8 gammas with (Gamma^a)^2 = -1.

    Block pattern: Gamma^{1,2,3} = diag(-etabar^a, etabar^a),
    Gamma^{4,5,6} = offdiag(eta^a, eta^a), Gamma^7 = offdiag(1, -1).
    """
    eta = _thooft(+1)
    etabar = _thooft(-1)
    gammas = []
    for a in range(3):
        g = np.zeros((8, 8))
        g[:4, :4] = -etabar[a]
        g[4:, 4:] = etabar[a]
        gammas.append(g)
    for a in range(3):
        g = np.zeros((8, 8))
        g[:4, 4:] = eta[a]
        g[4:, :4] = eta[a]
        gammas.append(g)
    g7 = np.zeros((8, 8))
    g7[:4, 4:] = np.eye(4)
    g7[4:, :4] = -np.eye(4)
    gammas.append(g7)
    return np.array(gammas)


_SIGMA = (np.eye(2, dtype=np.complex128), _X, _Y, _Z)

_TENSORS = {}


def const_tensor(name):
    """Fixed numeric tensors by name.

    eta / eta_bar      't Hooft symbols, shape (3, 4, 4)
    gamma7             seven real antisymmetric gammas, shape (7, 8, 8)
    sigma_euclid       (i, sigma_j) with mu = 1..3 spatial, mu = 4 the i entry
    sigma_euclid_dag   (-i, sigma_j)
    sigma_minkowski    (1, sigma_j) with index 0 temporal
    sigma_pauli        the three Pauli matrices, shape (3, 2, 2)
    epsilon            2x2 antisymmetric, eps_{12} = 1
    epsilon3/epsilon4  Levi-Civita tensors
    """
    if not _TENSORS:
        _TENSORS.update({
            "eta": _thooft(+1),
            "eta_bar": _thooft(-1),
            "gamma7": _gamma7(),
            "sigma_euclid": np.array([_SIGMA[1], _SIGMA[2], _SIGMA[3],
                                      1j * _SIGMA[0]]),
            "sigma_euclid_dag": np.array([_SIGMA[1], _SIGMA[2], _SIGMA[3],
                                          -1j * _SIGMA[0]]),
            "sigma_minkowski": np.array([_SIGMA[0], _SIGMA[1], _SIGMA[2],
                                         _SIGMA[3]]),
            "sigma_pauli": np.array([_SIGMA[1], _SIGMA[2], _SIGMA[3]]),
            "epsilon": np.array([[0.0, 1.0], [-1.0, 0.0]]),
            "epsilon3": levi_civita(3),
            "epsilon4": levi_civita(4),
        })
    try:
        return _TENSORS[name].copy()
    except KeyError:
        raise KeyError(f"unknown constant tensor {name!r}") from None


# ---------------------------------------------------------------------------
# fermion bilinears as fields


class FermionBilinearField(Field):
    """x -> sum_ab M_ab(x) * (fermion pair), as a Fock-space matrix field.

    Orderings: "pb" = psi_a psibar_b, "pp" = psi_a psi_b,
    "bb" = psibar_a psibar_b.  For the hermitian kind only "pp" makes
    sense (all fermions are their own conjugates).
    """

    params = ("rep", "ordering")

    def __init__(self, rep, mfield, ordering="pb"):
        _check_bilinear(rep, mfield, ordering)
        self.rep = rep
        self.mfield = mfield
        self.children = (mfield,)
        self.ordering = ordering
        self.shape = (rep.dim, rep.dim)
        self.ncoords = mfield.ncoords
        self._pairs = _pair_tensor(rep, ordering)

    def _compute(self, at, order, kids):
        return join_points(np.einsum("tpab,abrc->tprc",
                                     split_points(kids[0], at.n), self._pairs))

    def describe(self):
        names = {"pb": "psi.psibar", "bp": "psibar.psi",
                 "pp": "psi.psi", "bb": "psibar.psibar"}
        return f"[{self.mfield.describe()}]*{names[self.ordering]}"


class FermionLinearField(Field):
    """x -> sum_a v_a(x) * psi_a (or psibar_a)."""

    params = ("rep", "kind")

    def __init__(self, rep, vfield, kind="psi"):
        if kind not in ("psi", "psibar"):
            raise ValueError(f"unknown fermion kind {kind!r}")
        if kind == "psibar" and rep.kind == "hermitian":
            raise ValueError("hermitian fermions have no psibar")
        if vfield.shape != (1, rep.n):
            raise ValueError(f"need a 1 x {rep.n} row of coefficients")
        self.rep = rep
        self.vfield = vfield
        self.children = (vfield,)
        self.kind = kind
        self.shape = (rep.dim, rep.dim)
        self.ncoords = vfield.ncoords
        ops = rep.psi if kind == "psi" else rep.psibar
        self._ops = np.asarray(ops)

    def _compute(self, at, order, kids):
        return join_points(np.einsum("tpa,arc->tprc", kids[0], self._ops))

    def describe(self):
        return f"[{self.vfield.describe()}]*{self.kind}"


def _check_bilinear(rep, mfield, ordering):
    if ordering not in ("pb", "bp", "pp", "bb"):
        raise ValueError(f"unknown ordering {ordering!r}")
    nf = rep.n
    if mfield.shape != (nf, nf):
        raise ValueError(
            f"coefficient shape {mfield.shape} does not match {nf} fermions")
    if ordering != "pp" and rep.kind == "hermitian":
        raise ValueError("hermitian fermions have no psibar ordering")


def _pair_tensor(rep, ordering):
    """The Fock matrices of every fermion pair of ``ordering``, indexed
    by the pair."""
    nf = rep.n
    first = {"pb": rep.psi, "bp": rep.psibar,
             "pp": rep.psi, "bb": rep.psibar}[ordering]
    second = {"pb": rep.psibar, "bp": rep.psi,
              "pp": rep.psi, "bb": rep.psibar}[ordering]
    pairs = np.empty((nf, nf, rep.dim, rep.dim), dtype=np.complex128)
    for a in range(nf):
        for b in range(nf):
            pairs[a, b] = first[a] @ second[b]
    return pairs


def bilinear(rep, mfield, ordering="pb"):
    """Fermion bilinear with a matrix coefficient field."""
    if isinstance(mfield, ZeroField):
        return ZeroField((rep.dim, rep.dim), mfield.ncoords)
    if isinstance(mfield, ConstField):
        _check_bilinear(rep, mfield, ordering)
        mat = np.einsum("ab,abrc->rc", mfield.matrix,
                        _pair_tensor(rep, ordering))
        return fconst(mat, mfield.ncoords)
    return FermionBilinearField(rep, mfield, ordering)


def linear(rep, vfield, kind="psi"):
    if isinstance(vfield, ZeroField):
        return ZeroField((rep.dim, rep.dim), vfield.ncoords)
    if isinstance(vfield, ConstField):
        ops = rep.psi if kind == "psi" else rep.psibar
        mat = sum(vfield.matrix[0, a] * ops[a] for a in range(rep.n))
        return fconst(mat, vfield.ncoords)
    return FermionLinearField(rep, vfield, kind)
