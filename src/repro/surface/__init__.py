"""The gradually typed surface language (GTLC) and its elaboration into λB."""

from .ast import (
    Definition,
    Program,
    SApp,
    SAscribe,
    SConst,
    SFst,
    SIf,
    SLam,
    SLet,
    SLetRec,
    SOp,
    SPair,
    SSnd,
    SourceLocation,
    SurfaceExpr,
    SVar,
)
from .cast_insertion import (
    ElaborationError,
    coerce,
    elaborate,
    elaborate_program,
    insert_casts,
)
from .consistency import branch_join, consistent, fun_match, prod_match
from .interp import compile_source
from .parser import parse, parse_program, parse_type
from .typecheck import (
    static_errors,
    type_of_program,
    type_of_surface,
    well_typed_surface,
)

__all__ = [
    "Definition",
    "Program",
    "SApp",
    "SAscribe",
    "SConst",
    "SFst",
    "SIf",
    "SLam",
    "SLet",
    "SLetRec",
    "SOp",
    "SPair",
    "SSnd",
    "SourceLocation",
    "SurfaceExpr",
    "SVar",
    "ElaborationError",
    "coerce",
    "elaborate",
    "elaborate_program",
    "insert_casts",
    "branch_join",
    "consistent",
    "fun_match",
    "prod_match",
    "compile_source",
    "parse",
    "parse_program",
    "parse_type",
    "static_errors",
    "type_of_program",
    "type_of_surface",
    "well_typed_surface",
]
