"""Exact symbolic engine for graded BV structures of topological sigma models."""

from .grading import GradedVar
from .symalg import (
    CPoly,
    CoeffSymbol,
    Expr,
    MissingSymbolError,
    MixedContextError,
    SymGroup,
    make_symbol,
)
from .models import (
    Action,
    BfBlock,
    CsBlock,
    FamilyDecl,
    ModelError,
    ModelSpec,
    StructureData,
    ansatz_families,
    build_S1_generic,
)
from .pstructure import PStructure, check_bv_identities

__all__ = [
    "GradedVar",
    "CPoly",
    "CoeffSymbol",
    "Expr",
    "MissingSymbolError",
    "MixedContextError",
    "SymGroup",
    "make_symbol",
    "Action",
    "BfBlock",
    "CsBlock",
    "FamilyDecl",
    "ModelError",
    "ModelSpec",
    "StructureData",
    "ansatz_families",
    "build_S1_generic",
    "PStructure",
    "check_bv_identities",
]
