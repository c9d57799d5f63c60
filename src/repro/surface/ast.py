"""Abstract syntax of the gradually typed surface language (GTLC).

The surface language is the programmer-facing layer the paper's calculi are
designed to support (Siek & Taha 2006): a simply typed λ-calculus in which
any type annotation may be replaced by the dynamic type ``?``.  Type checking
uses *consistency* instead of equality, and elaboration inserts λB casts —
with blame labels pointing at source locations — at every spot where
consistency was used.

Concrete syntax is s-expression based; see :mod:`repro.surface.parser`.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from ..core.records import record
from ..core.types import Type


@record
class SourceLocation:
    """A line/column position in the source program, used to name blame labels."""

    line: int
    column: int

    def blame_name(self, role: str) -> str:
        return f"{role}@{self.line}:{self.column}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.line}:{self.column}"


NOWHERE = SourceLocation(0, 0)


class SurfaceExpr:
    """Abstract base class of surface expressions."""

    __slots__ = ()


@record
class SConst(SurfaceExpr):
    value: object
    location: SourceLocation = NOWHERE


@record
class SVar(SurfaceExpr):
    name: str
    location: SourceLocation = NOWHERE


@record
class SLam(SurfaceExpr):
    """``(lambda ([x : T] ...) body)``; a missing annotation means ``?``."""

    params: tuple[tuple[str, Type], ...]
    body: SurfaceExpr
    location: SourceLocation = NOWHERE


@record
class SApp(SurfaceExpr):
    """Curried application ``(f a b ...)``."""

    fun: SurfaceExpr
    args: tuple[SurfaceExpr, ...]
    location: SourceLocation = NOWHERE


@record
class SOp(SurfaceExpr):
    op: str
    args: tuple[SurfaceExpr, ...]
    location: SourceLocation = NOWHERE


@record
class SIf(SurfaceExpr):
    cond: SurfaceExpr
    then_branch: SurfaceExpr
    else_branch: SurfaceExpr
    location: SourceLocation = NOWHERE


@record
class SLet(SurfaceExpr):
    bindings: tuple[tuple[str, SurfaceExpr], ...]
    body: SurfaceExpr
    location: SourceLocation = NOWHERE


@record
class SLetRec(SurfaceExpr):
    """``(letrec ([f : T expr]) body)`` — ``T`` must be a function type (or ``?``)."""

    name: str
    annotation: Type
    bound: SurfaceExpr
    body: SurfaceExpr
    location: SourceLocation = NOWHERE


@record
class SPair(SurfaceExpr):
    left: SurfaceExpr
    right: SurfaceExpr
    location: SourceLocation = NOWHERE


@record
class SFst(SurfaceExpr):
    arg: SurfaceExpr
    location: SourceLocation = NOWHERE


@record
class SSnd(SurfaceExpr):
    arg: SurfaceExpr
    location: SourceLocation = NOWHERE


@record
class SAscribe(SurfaceExpr):
    """A type ascription ``(: e T)`` — the gradual programmer's cast."""

    expr: SurfaceExpr
    annotation: Type
    location: SourceLocation = NOWHERE


@record
class Definition:
    """A top-level ``define``; possibly recursive, possibly dynamically typed."""

    name: str
    annotation: Optional[Type]
    body: SurfaceExpr
    location: SourceLocation = NOWHERE


@record
class Program:
    """A sequence of definitions followed by a main expression."""

    definitions: tuple[Definition, ...] = field(default_factory=tuple)
    main: SurfaceExpr | None = None
