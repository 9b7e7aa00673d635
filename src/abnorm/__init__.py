"""Left-invariant sub-Finsler quasimetrics on 4D Lie groups: bracket
generation, canonical bases and the strict/non-strict classification of
abnormal extremals, with an independent adjoint-ODE witness oracle.
"""

from .adjoint import integrate, witness_search
from .catalog import (
    AlgebraId,
    automorphism_family,
    default_id,
    instantiate,
    known_generating_subspace,
    list_families,
)
from .extremal import (
    Dim3Verdict,
    Verdict,
    classify,
    classify_dim3,
    theorem3_dispatch,
)
from .lie import StructureConstants, bracket, jacobi_defect, killing_matrix
from .seminorm import Disk, Ellipse, Polygon, axis_condition, polar
from .subspace import Subspace, canonical_basis, check_prop2, classify_sl2, generates

__version__ = "0.1.0"

__all__ = [
    "AlgebraId",
    "Dim3Verdict",
    "Disk",
    "Ellipse",
    "Polygon",
    "StructureConstants",
    "Subspace",
    "Verdict",
    "automorphism_family",
    "axis_condition",
    "bracket",
    "canonical_basis",
    "check_prop2",
    "classify",
    "classify_dim3",
    "classify_sl2",
    "default_id",
    "generates",
    "instantiate",
    "integrate",
    "jacobi_defect",
    "killing_matrix",
    "known_generating_subspace",
    "list_families",
    "polar",
    "theorem3_dispatch",
    "witness_search",
]
