"""Graded differential-operator engine and supersymmetric quantum
mechanics model zoo, with mechanical superalgebra verification."""

from .clifford import (FermionRep, bilinear, complex_fermions, const_tensor,
                       hermitian_fermions, linear, realify)
from .diffop import (DiffOp, Exclusion, Residual, SampleSpec,
                     adjoint_with_measure, anticommutator, commutator,
                     compose, is_zero, momentum_op, mult_op, naive_dagger,
                     partial_op, pretty, reduce_cyclic, similarity)
from .expr import Expr, parse
from .geometry import (ComplexStructure, GeometryData, canonical_triple,
                       from_omega, from_vielbein, gibbons_hawking,
                       kahler_block_structure, select_orientation)
from .report import CheckReport, render_report
from .zoo import CATALOG, Model, list_models

__all__ = [
    "CATALOG", "CheckReport", "ComplexStructure", "DiffOp", "Exclusion",
    "Expr", "FermionRep", "GeometryData", "Model", "Residual", "SampleSpec",
    "adjoint_with_measure", "anticommutator", "bilinear", "canonical_triple",
    "commutator", "complex_fermions", "compose", "const_tensor", "from_omega",
    "from_vielbein", "gibbons_hawking", "hermitian_fermions", "is_zero",
    "kahler_block_structure", "linear", "list_models", "momentum_op",
    "mult_op", "naive_dagger", "parse", "partial_op", "pretty", "realify",
    "reduce_cyclic", "render_report", "select_orientation", "similarity",
]

__version__ = "0.1.0"
