"""The type structure of the three calculi (Figure 1, "Syntax").

Types are::

    A, B, C ::= ι | A → B | A × B | ?

where ``ι`` ranges over base types and ``?`` is the dynamic type.  Ground
types are::

    G, H ::= ι | ? → ? | ? × ?

Products are the extension the paper explicitly anticipates ("it adapts if we
permit other ground types, such as product G = ? × ?"); the whole library
treats them uniformly with functions.

The module also provides the compatibility relation ``A ~ B`` and the
grounding function of Lemma 1 (every non-dynamic type is compatible with a
unique ground type).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator


class Type:
    """Abstract base class for types.

    Concrete types are immutable dataclasses, so they hash and compare
    structurally and can be used as dictionary keys (the space-efficient
    calculus relies on this when memoising compositions).
    """

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - overridden
        return type_to_str(self)

    def __repr__(self) -> str:
        return type_to_str(self)


@dataclass(frozen=True, repr=False)
class BaseType(Type):
    """A base type ``ι`` such as ``int`` or ``bool``."""

    name: str


@dataclass(frozen=True, repr=False)
class FunType(Type):
    """A function type ``A → B``."""

    dom: Type
    cod: Type


@dataclass(frozen=True, repr=False)
class ProdType(Type):
    """A product type ``A × B`` (paper's suggested extension)."""

    left: Type
    right: Type


@dataclass(frozen=True, repr=False)
class DynType(Type):
    """The dynamic type ``?``."""


@dataclass(frozen=True, repr=False)
class UnknownType(Type):
    """Internal wildcard used to give ``blame p`` a type.

    The paper's typing rule allows ``blame p`` to take any type.  To keep type
    synthesis total, ``blame p`` synthesises ``UnknownType``, and the type
    checkers treat it as equal to every type.  It never appears in user
    programs, coercions, or casts.
    """


# ---------------------------------------------------------------------------
# Singletons
# ---------------------------------------------------------------------------

DYN = DynType()
UNKNOWN = UnknownType()

INT = BaseType("int")
BOOL = BaseType("bool")
STR = BaseType("str")
UNIT = BaseType("unit")

#: Base types known to the primitive operators.  Users may introduce
#: additional base types simply by constructing ``BaseType("name")``.
BASE_TYPES: tuple[BaseType, ...] = (INT, BOOL, STR, UNIT)

#: The ground function type ``? → ?``.
GROUND_FUN = FunType(DYN, DYN)

#: The ground product type ``? × ?``.
GROUND_PROD = ProdType(DYN, DYN)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def is_base(ty: Type) -> bool:
    """Is ``ty`` a base type ``ι``?"""
    return isinstance(ty, BaseType)


def is_dyn(ty: Type) -> bool:
    """Is ``ty`` the dynamic type ``?``?"""
    return isinstance(ty, DynType)


def is_ground(ty: Type) -> bool:
    """Is ``ty`` a ground type ``G`` (a base type, ``?→?``, or ``?×?``)?"""
    if isinstance(ty, BaseType):
        return True
    if isinstance(ty, FunType):
        return ty == GROUND_FUN
    if isinstance(ty, ProdType):
        return ty == GROUND_PROD
    return False


def _types_equal_impl(a: Type, b: Type, rec) -> bool:
    """The one definition of wildcard equality; ``rec`` is the recursion target,
    so the memoized and unmemoized versions share this body and cannot diverge."""
    if isinstance(a, UnknownType) or isinstance(b, UnknownType):
        return True
    if isinstance(a, FunType) and isinstance(b, FunType):
        return rec(a.dom, b.dom) and rec(a.cod, b.cod)
    if isinstance(a, ProdType) and isinstance(b, ProdType):
        return rec(a.left, b.left) and rec(a.right, b.right)
    return a == b


def types_equal_unmemoized(a: Type, b: Type) -> bool:
    """Reference implementation of :func:`types_equal` (no caching)."""
    return _types_equal_impl(a, b, types_equal_unmemoized)


@lru_cache(maxsize=None)
def _types_equal_memo(a: Type, b: Type) -> bool:
    return _types_equal_impl(a, b, _types_equal_memo)


def types_equal(a: Type, b: Type) -> bool:
    """Structural equality that lets the wildcard :data:`UNKNOWN` match anything.

    Memoised: on interned types (see :mod:`repro.core.intern`) the identity
    fast path makes repeated comparisons O(1).
    """
    if a is b:
        return True
    return _types_equal_memo(a, b)


# ---------------------------------------------------------------------------
# Compatibility and grounding (Figure 1, Lemma 1)
# ---------------------------------------------------------------------------


def _compatible_impl(a: Type, b: Type, rec) -> bool:
    """The one definition of ``A ~ B``; ``rec`` is the recursion target, so the
    memoized and unmemoized versions share this body and cannot diverge."""
    if isinstance(a, UnknownType) or isinstance(b, UnknownType):
        return True
    if isinstance(a, DynType) or isinstance(b, DynType):
        return True
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        return a == b
    if isinstance(a, FunType) and isinstance(b, FunType):
        return rec(a.dom, b.dom) and rec(a.cod, b.cod)
    if isinstance(a, ProdType) and isinstance(b, ProdType):
        return rec(a.left, b.left) and rec(a.right, b.right)
    return False


def compatible_unmemoized(a: Type, b: Type) -> bool:
    """Reference implementation of :func:`compatible` (no caching)."""
    return _compatible_impl(a, b, compatible_unmemoized)


@lru_cache(maxsize=None)
def _compatible_memo(a: Type, b: Type) -> bool:
    return _compatible_impl(a, b, _compatible_memo)


def compatible(a: Type, b: Type) -> bool:
    """The compatibility relation ``A ~ B``.

    Two types are compatible if either is ``?``, they are the same base type,
    or they are both function (resp. product) types with compatible
    components.  Note function compatibility is *not* contravariant — it just
    asks for compatibility of domains and of codomains.

    Memoised: the machine asks the same compatibility questions on every
    boundary crossing, so repeated queries are dictionary hits.
    """
    return _compatible_memo(a, b)


def ground_of_unmemoized(ty: Type) -> Type:
    """Reference implementation of :func:`ground_of` (no caching)."""
    if isinstance(ty, DynType):
        raise ValueError("the dynamic type ? has no associated ground type")
    if isinstance(ty, BaseType):
        return ty
    if isinstance(ty, FunType):
        return GROUND_FUN
    if isinstance(ty, ProdType):
        return GROUND_PROD
    raise ValueError(f"not a groundable type: {ty!r}")


@lru_cache(maxsize=None)
def _ground_of_memo(ty: Type) -> Type:
    return ground_of_unmemoized(ty)


def ground_of(ty: Type) -> Type:
    """Lemma 1(1): for ``A ≠ ?`` return the unique ground type ``G`` with ``A ~ G``.

    Raises ``ValueError`` for the dynamic type, which has no grounding.
    """
    if isinstance(ty, DynType):
        raise ValueError("the dynamic type ? has no associated ground type")
    return _ground_of_memo(ty)


def grounds_to(ty: Type, ground: Type) -> bool:
    """Does ``ty`` ground to ``ground`` (i.e. ``ty ≠ ?`` and ``ty ~ ground``)?"""
    if isinstance(ty, DynType):
        return False
    return ground_of(ty) == ground


def needs_ground_factoring(ty: Type) -> bool:
    """Side condition ``A ≠ ?``, ``A ≠ G``, ``A ~ G`` of the factoring rules.

    True when a cast between ``ty`` and ``?`` must factor through the ground
    type of ``ty`` (Figure 1, fifth and sixth reduction rules).
    """
    if isinstance(ty, DynType):
        return False
    return not is_ground(ty)


# ---------------------------------------------------------------------------
# Metrics and enumeration helpers
# ---------------------------------------------------------------------------


def type_height(ty: Type) -> int:
    """Height of a type: 1 for leaves, 1 + max of children otherwise."""
    if isinstance(ty, FunType):
        return 1 + max(type_height(ty.dom), type_height(ty.cod))
    if isinstance(ty, ProdType):
        return 1 + max(type_height(ty.left), type_height(ty.right))
    return 1


def type_size(ty: Type) -> int:
    """Number of constructors in a type."""
    if isinstance(ty, FunType):
        return 1 + type_size(ty.dom) + type_size(ty.cod)
    if isinstance(ty, ProdType):
        return 1 + type_size(ty.left) + type_size(ty.right)
    return 1


def subterms(ty: Type) -> Iterator[Type]:
    """All subterms of a type, including itself (pre-order)."""
    yield ty
    if isinstance(ty, FunType):
        yield from subterms(ty.dom)
        yield from subterms(ty.cod)
    elif isinstance(ty, ProdType):
        yield from subterms(ty.left)
        yield from subterms(ty.right)


@lru_cache(maxsize=None)
def _all_types_cached(depth: int, leaves: tuple[Type, ...], include_prod: bool) -> tuple[Type, ...]:
    if depth <= 1:
        return leaves
    smaller = _all_types_cached(depth - 1, leaves, include_prod)
    result: list[Type] = list(smaller)
    for dom in smaller:
        for cod in smaller:
            result.append(FunType(dom, cod))
            if include_prod:
                result.append(ProdType(dom, cod))
    # Deduplicate while preserving order.
    seen: set[Type] = set()
    unique: list[Type] = []
    for ty in result:
        if ty not in seen:
            seen.add(ty)
            unique.append(ty)
    return tuple(unique)


def all_types(
    depth: int,
    leaves: Iterable[Type] = (DYN, INT, BOOL),
    include_products: bool = False,
) -> tuple[Type, ...]:
    """Enumerate every type of height at most ``depth`` over the given leaves.

    Used by the exhaustive "small-case" tests for the subtyping lemmas.  The
    enumeration grows quickly, so callers keep ``depth`` at 3 or below.
    """
    return _all_types_cached(depth, tuple(leaves), include_products)


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------


def type_to_str(ty: Type) -> str:
    """Render a type using the paper's notation."""
    if isinstance(ty, DynType):
        return "?"
    if isinstance(ty, UnknownType):
        return "<any>"
    if isinstance(ty, BaseType):
        return ty.name
    if isinstance(ty, FunType):
        dom = type_to_str(ty.dom)
        if isinstance(ty.dom, (FunType, ProdType)):
            dom = f"({dom})"
        return f"{dom} -> {type_to_str(ty.cod)}"
    if isinstance(ty, ProdType):
        left = type_to_str(ty.left)
        right = type_to_str(ty.right)
        if isinstance(ty.left, (FunType, ProdType)):
            left = f"({left})"
        if isinstance(ty.right, (FunType, ProdType)):
            right = f"({right})"
        return f"{left} * {right}"
    raise TypeError(f"unknown type node: {ty!r}")
