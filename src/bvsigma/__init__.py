"""Exact symbolic engine for graded BV structures of topological sigma models."""

from .grading import GradedVar, parity
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
    validate_degree,
)
from .pstructure import PStructure, check_bv_identities

__all__ = [
    "GradedVar",
    "parity",
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
    "validate_degree",
    "PStructure",
    "check_bv_identities",
]
