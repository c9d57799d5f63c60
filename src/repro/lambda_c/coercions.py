"""Coercions of the coercion calculus λC (Figure 3).

The grammar is Henglein's, with a blame label on projections (as in Siek &
Wadler 2010) and an explicit failure coercion::

    c, d ::= id_A | G! | G?p | c → d | c × d | c ; d | ⊥GpH

(``c × d`` is the product extension the paper anticipates.)  Coercion typing::

    id_A : A ⇒ A        G! : G ⇒ ?        G?p : ? ⇒ G

    c : A' ⇒ A   d : B ⇒ B'            c : A ⇒ B   d : B ⇒ C
    ---------------------------        -----------------------
    c → d : A→B ⇒ A'→B'                 c ; d : A ⇒ C

    A ≠ ?    A ~ G    G ≠ H
    ------------------------
    ⊥GpH : A ⇒ B

The failure coercion may be used at many types; following the paper's
informal ``⊥GpH_{A⇒B}`` notation, our :class:`Fail` node carries optional
source/target annotations that translations and composition fill in when the
types are known.

The module also defines the *height* of a coercion (used by the space bound,
Proposition 14) and coercion safety ``c safe q`` ("a coercion is safe for q
if it does not mention label q").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..core.errors import CoercionTypeError
from ..core.labels import Label
from ..core.types import (
    DYN,
    UNKNOWN,
    DynType,
    FunType,
    ProdType,
    Type,
    compatible,
    is_ground,
    types_equal,
)


class Coercion:
    """Abstract base class of λC coercions."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - overridden below
        return coercion_to_str(self)

    def __repr__(self) -> str:
        return coercion_to_str(self)


@dataclass(frozen=True, repr=False)
class Identity(Coercion):
    """The identity coercion ``id_A``."""

    type: Type


@dataclass(frozen=True, repr=False)
class Inject(Coercion):
    """Injection ``G!`` from ground type ``G`` into the dynamic type."""

    ground: Type

    def __post_init__(self) -> None:
        if not is_ground(self.ground):
            raise CoercionTypeError(f"injection requires a ground type, got {self.ground}")


@dataclass(frozen=True, repr=False)
class Project(Coercion):
    """Projection ``G?p`` from the dynamic type to ground type ``G``, blaming ``p`` on failure."""

    ground: Type
    label: Label

    def __post_init__(self) -> None:
        if not is_ground(self.ground):
            raise CoercionTypeError(f"projection requires a ground type, got {self.ground}")


@dataclass(frozen=True, repr=False)
class FunCoercion(Coercion):
    """Function coercion ``c → d`` (contravariant in ``c``, covariant in ``d``)."""

    dom: Coercion
    cod: Coercion


@dataclass(frozen=True, repr=False)
class ProdCoercion(Coercion):
    """Product coercion ``c × d`` (covariant in both components; extension)."""

    left: Coercion
    right: Coercion


@dataclass(frozen=True, repr=False)
class Sequence(Coercion):
    """Composition ``c ; d``: first ``c``, then ``d``."""

    first: Coercion
    second: Coercion


@dataclass(frozen=True, repr=False, eq=False)
class Fail(Coercion):
    """The failure coercion ``⊥GpH``.

    ``source``/``target`` are the optional informal annotations ``A ⇒ B`` of
    the paper; they are not part of coercion identity (they are excluded from
    equality) but are carried along so type checking and the coercion-to-cast
    translation can recover the types in play.
    """

    source_ground: Type
    label: Label
    target_ground: Type
    source: Type | None = None
    target: Type | None = None

    def __post_init__(self) -> None:
        if not is_ground(self.source_ground) or not is_ground(self.target_ground):
            raise CoercionTypeError("⊥GpH requires ground types G and H")
        if self.source_ground == self.target_ground:
            raise CoercionTypeError("⊥GpH requires G ≠ H")

    def key(self) -> tuple:
        """Identity of the failure coercion ignoring the informal annotations."""
        return (self.source_ground, self.label, self.target_ground)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fail):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash((Fail, self.key()))


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------


def coercion_source(c: Coercion) -> Type:
    """The source type of a coercion (``UNKNOWN`` when under-determined)."""
    if isinstance(c, Identity):
        return c.type
    if isinstance(c, Inject):
        return c.ground
    if isinstance(c, Project):
        return DYN
    if isinstance(c, FunCoercion):
        return FunType(coercion_target(c.dom), coercion_source(c.cod))
    if isinstance(c, ProdCoercion):
        return ProdType(coercion_source(c.left), coercion_source(c.right))
    if isinstance(c, Sequence):
        return coercion_source(c.first)
    if isinstance(c, Fail):
        return c.source if c.source is not None else UNKNOWN
    raise CoercionTypeError(f"unknown coercion node: {c!r}")


def coercion_target(c: Coercion) -> Type:
    """The target type of a coercion (``UNKNOWN`` when under-determined)."""
    if isinstance(c, Identity):
        return c.type
    if isinstance(c, Inject):
        return DYN
    if isinstance(c, Project):
        return c.ground
    if isinstance(c, FunCoercion):
        return FunType(coercion_source(c.dom), coercion_target(c.cod))
    if isinstance(c, ProdCoercion):
        return ProdType(coercion_target(c.left), coercion_target(c.right))
    if isinstance(c, Sequence):
        return coercion_target(c.second)
    if isinstance(c, Fail):
        return c.target if c.target is not None else UNKNOWN
    raise CoercionTypeError(f"unknown coercion node: {c!r}")


def check_coercion(c: Coercion, source: Type) -> Type:
    """Check that ``c`` coerces from ``source`` and return its target type.

    Raises :class:`CoercionTypeError` when ``c`` cannot be applied at
    ``source``.  For :class:`Fail` the source only has to be a non-dynamic
    type compatible with ``G``; the target is the annotation (or ``UNKNOWN``).
    """
    from ..core.types import UnknownType

    if isinstance(source, UnknownType):
        # The subject is `blame p` (any type); trust the coercion's own typing.
        return coercion_target(c)
    if isinstance(c, Identity):
        if not types_equal(c.type, source):
            raise CoercionTypeError(f"id_{c.type} applied at {source}")
        return c.type
    if isinstance(c, Inject):
        if not types_equal(c.ground, source):
            raise CoercionTypeError(f"{c.ground}! applied at {source}")
        return DYN
    if isinstance(c, Project):
        if not types_equal(source, DYN):
            raise CoercionTypeError(f"{c.ground}?{c.label} applied at non-dynamic {source}")
        return c.ground
    if isinstance(c, FunCoercion):
        if not isinstance(source, FunType):
            raise CoercionTypeError(f"function coercion applied at non-function {source}")
        new_dom = coercion_source(c.dom)
        dom_target = check_coercion(c.dom, new_dom)
        if not types_equal(dom_target, source.dom):
            raise CoercionTypeError(
                f"function coercion domain mismatch: {dom_target} vs {source.dom}"
            )
        new_cod = check_coercion(c.cod, source.cod)
        return FunType(new_dom, new_cod)
    if isinstance(c, ProdCoercion):
        if not isinstance(source, ProdType):
            raise CoercionTypeError(f"product coercion applied at non-product {source}")
        return ProdType(check_coercion(c.left, source.left), check_coercion(c.right, source.right))
    if isinstance(c, Sequence):
        middle = check_coercion(c.first, source)
        return check_coercion(c.second, middle)
    if isinstance(c, Fail):
        if isinstance(source, DynType):
            raise CoercionTypeError("⊥GpH may not be applied at the dynamic type")
        if not compatible(source, c.source_ground):
            raise CoercionTypeError(
                f"⊥{c.source_ground}{c.label}{c.target_ground} applied at {source}, "
                f"which is not compatible with {c.source_ground}"
            )
        return c.target if c.target is not None else UNKNOWN
    raise CoercionTypeError(f"unknown coercion node: {c!r}")


def well_formed(c: Coercion) -> bool:
    """Is the coercion internally well-typed (composition middles agree)?"""
    try:
        _ = check_coercion(c, coercion_source(c))
        return True
    except CoercionTypeError:
        return False


# ---------------------------------------------------------------------------
# Height (Figure 3) and size
# ---------------------------------------------------------------------------


def height(c: Coercion) -> int:
    """Height of a coercion; note composition does *not* increase height."""
    if isinstance(c, (Identity, Inject, Project, Fail)):
        return 1
    if isinstance(c, FunCoercion):
        return max(height(c.dom), height(c.cod)) + 1
    if isinstance(c, ProdCoercion):
        return max(height(c.left), height(c.right)) + 1
    if isinstance(c, Sequence):
        return max(height(c.first), height(c.second))
    raise CoercionTypeError(f"unknown coercion node: {c!r}")


def size(c: Coercion) -> int:
    """Number of coercion constructors."""
    if isinstance(c, (Identity, Inject, Project, Fail)):
        return 1
    if isinstance(c, FunCoercion):
        return 1 + size(c.dom) + size(c.cod)
    if isinstance(c, ProdCoercion):
        return 1 + size(c.left) + size(c.right)
    if isinstance(c, Sequence):
        return 1 + size(c.first) + size(c.second)
    raise CoercionTypeError(f"unknown coercion node: {c!r}")


def subcoercions(c: Coercion) -> Iterator[Coercion]:
    yield c
    if isinstance(c, FunCoercion):
        yield from subcoercions(c.dom)
        yield from subcoercions(c.cod)
    elif isinstance(c, ProdCoercion):
        yield from subcoercions(c.left)
        yield from subcoercions(c.right)
    elif isinstance(c, Sequence):
        yield from subcoercions(c.first)
        yield from subcoercions(c.second)


# ---------------------------------------------------------------------------
# Safety (Figure 3): a coercion is safe for q iff it does not mention q
# ---------------------------------------------------------------------------


def coercion_safe_for(c: Coercion, q: Label) -> bool:
    """The judgement ``c safe q``."""
    for sub in subcoercions(c):
        if isinstance(sub, Project) and sub.label == q:
            return False
        if isinstance(sub, Fail) and sub.label == q:
            return False
    return True


def labels_of(c: Coercion) -> set[Label]:
    """All blame labels mentioned by a coercion."""
    result: set[Label] = set()
    for sub in subcoercions(c):
        if isinstance(sub, Project):
            result.add(sub.label)
        elif isinstance(sub, Fail):
            result.add(sub.label)
    return result


# ---------------------------------------------------------------------------
# Construction helpers and pretty printing
# ---------------------------------------------------------------------------


def identity(ty: Type) -> Identity:
    return Identity(ty)


def sequence(*coercions: Coercion) -> Coercion:
    """Left-nested composition of several coercions; identity if none given."""
    if not coercions:
        return Identity(DYN)
    result = coercions[0]
    for c in coercions[1:]:
        result = Sequence(result, c)
    return result


# ---------------------------------------------------------------------------
# Interning (hash-consing) — see repro.core.intern
# ---------------------------------------------------------------------------

from ..core.intern import Interner as _Interner  # noqa: E402  (layered import)

#: The λC coercions.  Pointer equality on canonical coercions coincides with
#: structural equality (for :class:`Fail`, whose equality ignores the
#: informal source/target annotations, each annotation variant keeps its own
#: canonical node so the annotations survive interning).
COERCION_TABLE = _Interner(
    "coercions_c",
    {Identity: "t", Inject: "t", Project: "tl", FunCoercion: "nn", ProdCoercion: "nn",
     Sequence: "nn", Fail: "tltTT"},
)
intern_coercion = COERCION_TABLE.intern
is_interned_coercion = COERCION_TABLE.is_canonical


def coercion_to_str(c: Coercion) -> str:
    if isinstance(c, Identity):
        return f"id[{c.type}]"
    if isinstance(c, Inject):
        return f"{c.ground}!"
    if isinstance(c, Project):
        return f"{c.ground}?{c.label}"
    if isinstance(c, FunCoercion):
        return f"({coercion_to_str(c.dom)} -> {coercion_to_str(c.cod)})"
    if isinstance(c, ProdCoercion):
        return f"({coercion_to_str(c.left)} x {coercion_to_str(c.right)})"
    if isinstance(c, Sequence):
        return f"({coercion_to_str(c.first)} ; {coercion_to_str(c.second)})"
    if isinstance(c, Fail):
        return f"Fail[{c.source_ground},{c.label},{c.target_ground}]"
    raise CoercionTypeError(f"unknown coercion node: {c!r}")
