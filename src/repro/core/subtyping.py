"""Subtyping, blame safety for casts, and the meet over naive subtyping.

This module implements Figure 2 of the paper:

* ordinary subtyping ``A <: B`` — characterises casts that never blame;
* positive subtyping ``A <:+ B`` — casts that never allocate *positive* blame;
* negative subtyping ``A <:− B`` — casts that never allocate *negative* blame;
* naive subtyping ``A <:n B`` — ``A`` is more precise than ``B``;
* the safe-cast judgement ``(A ⇒p B) safe q``;

together with the Tangram lemma (Lemma 4) as executable checks, the pointed
types ``S, T ::= ι | S → T | S × T | ? | ⊥`` of Section 5.2, and the meet
``A & B`` (greatest lower bound with respect to naive subtyping) used by the
Fundamental Property of Casts (Lemmas 20 and 21).

Products (the paper's anticipated extension) are covariant in every relation,
in both components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .labels import Label
from .types import (
    DYN,
    BaseType,
    DynType,
    FunType,
    ProdType,
    Type,
)


# ---------------------------------------------------------------------------
# Pointed types (Section 5.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, repr=False)
class BottomType(Type):
    """The pointed type ``⊥``, below every type in naive subtyping."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "⊥"


BOT = BottomType()


def contains_bottom(ty: Type) -> bool:
    """Does a pointed type mention ``⊥`` anywhere?"""
    if isinstance(ty, BottomType):
        return True
    if isinstance(ty, FunType):
        return contains_bottom(ty.dom) or contains_bottom(ty.cod)
    if isinstance(ty, ProdType):
        return contains_bottom(ty.left) or contains_bottom(ty.right)
    return False


# ---------------------------------------------------------------------------
# The four subtyping relations (Figure 2)
# ---------------------------------------------------------------------------


def subtype(a: Type, b: Type) -> bool:
    """Ordinary subtyping ``A <: B``: the cast ``A ⇒ B`` never yields blame.

    Rules: ``ι <: ι``; contravariant/covariant function rule; covariant
    product rule; ``A <: ?`` when ``A <: G`` for the ground type of ``A``;
    and ``? <: ?`` (needed for reflexivity, cf. Wadler & Findler 2009).
    """
    if isinstance(a, BottomType):
        return True
    if isinstance(a, DynType) and isinstance(b, DynType):
        return True
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        return a == b
    if isinstance(a, FunType) and isinstance(b, FunType):
        return subtype(b.dom, a.dom) and subtype(a.cod, b.cod)
    if isinstance(a, ProdType) and isinstance(b, ProdType):
        return subtype(a.left, b.left) and subtype(a.right, b.right)
    if isinstance(b, DynType) and not isinstance(a, DynType):
        # A <: ?  iff  A <: G where G is the ground type of A.
        if isinstance(a, BaseType):
            return True
        if isinstance(a, FunType):
            return subtype(DYN, a.dom) and subtype(a.cod, DYN)
        if isinstance(a, ProdType):
            return subtype(a.left, DYN) and subtype(a.right, DYN)
    return False


def subtype_pos(a: Type, b: Type) -> bool:
    """Positive subtyping ``A <:+ B``: the cast never allocates positive blame."""
    if isinstance(a, BottomType):
        return True
    if isinstance(b, DynType):
        return True  # A <:+ ?
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        return a == b
    if isinstance(a, FunType) and isinstance(b, FunType):
        return subtype_neg(b.dom, a.dom) and subtype_pos(a.cod, b.cod)
    if isinstance(a, ProdType) and isinstance(b, ProdType):
        return subtype_pos(a.left, b.left) and subtype_pos(a.right, b.right)
    return False


def subtype_neg(a: Type, b: Type) -> bool:
    """Negative subtyping ``A <:− B``: the cast never allocates negative blame."""
    if isinstance(a, BottomType):
        return True
    if isinstance(a, DynType):
        return True  # ? <:− B
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        return a == b
    if isinstance(a, FunType) and isinstance(b, FunType):
        return subtype_pos(b.dom, a.dom) and subtype_neg(a.cod, b.cod)
    if isinstance(a, ProdType) and isinstance(b, ProdType):
        return subtype_neg(a.left, b.left) and subtype_neg(a.right, b.right)
    if isinstance(b, DynType):
        # A <:− ?  iff  A <:− G where G grounds A.
        if isinstance(a, BaseType):
            return True
        if isinstance(a, FunType):
            return subtype_pos(DYN, a.dom) and subtype_neg(a.cod, DYN)
        if isinstance(a, ProdType):
            return subtype_neg(a.left, DYN) and subtype_neg(a.right, DYN)
    return False


def subtype_naive(a: Type, b: Type) -> bool:
    """Naive subtyping ``A <:n B``: type ``A`` is more precise than type ``B``.

    Characterised by covariance everywhere; ``?`` is the least precise type
    and the pointed type ``⊥`` is more precise than everything.
    """
    if isinstance(a, BottomType):
        return True
    if isinstance(b, DynType):
        return True
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        return a == b
    if isinstance(a, FunType) and isinstance(b, FunType):
        return subtype_naive(a.dom, b.dom) and subtype_naive(a.cod, b.cod)
    if isinstance(a, ProdType) and isinstance(b, ProdType):
        return subtype_naive(a.left, b.left) and subtype_naive(a.right, b.right)
    return False


# ---------------------------------------------------------------------------
# Tangram lemma (Lemma 4) as executable checks
# ---------------------------------------------------------------------------


def tangram_subtype(a: Type, b: Type) -> bool:
    """Lemma 4(1): ``A <: B`` iff ``A <:+ B`` and ``A <:− B``."""
    return subtype_pos(a, b) and subtype_neg(a, b)


def tangram_naive(a: Type, b: Type) -> bool:
    """Lemma 4(2): ``A <:n B`` iff ``A <:+ B`` and ``B <:− A``."""
    return subtype_pos(a, b) and subtype_neg(b, a)


# ---------------------------------------------------------------------------
# Safe-cast judgement (Figure 2)
# ---------------------------------------------------------------------------


def cast_safe_for(source: Type, cast_label: Label, target: Type, q: Label) -> bool:
    """The judgement ``(A ⇒p B) safe q``.

    A cast is safe for ``q`` when evaluating it can never allocate blame to
    ``q``: either ``q`` is neither ``p`` nor ``p̄``, or ``q = p`` and
    ``A <:+ B``, or ``q = p̄`` and ``A <:− B``.
    """
    p = cast_label
    if q != p and q != p.complement():
        return True
    if q == p and subtype_pos(source, target):
        return True
    if q == p.complement() and subtype_neg(source, target):
        return True
    return False


# ---------------------------------------------------------------------------
# Meet over naive subtyping (Section 5.2)
# ---------------------------------------------------------------------------


def meet(a: Type, b: Type) -> Type:
    """The meet ``A & B``: greatest lower bound with respect to ``<:n``.

    The result is a pointed type and may contain ``⊥`` (when the two types
    disagree on a base-type position).
    """
    if isinstance(a, BottomType) or isinstance(b, BottomType):
        return BOT
    if isinstance(a, DynType):
        return b
    if isinstance(b, DynType):
        return a
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        return a if a == b else BOT
    if isinstance(a, FunType) and isinstance(b, FunType):
        return FunType(meet(a.dom, b.dom), meet(a.cod, b.cod))
    if isinstance(a, ProdType) and isinstance(b, ProdType):
        return ProdType(meet(a.left, b.left), meet(a.right, b.right))
    return BOT


def join(a: Type, b: Type) -> Type | None:
    """The join (least upper bound) with respect to ``<:n``, if it exists.

    Used by the surface language to give a type to ``if`` branches.  Returns
    ``None`` when the two types have no upper bound other than ``?`` at an
    incompatible position — in that case the surface checker uses ``?``.
    """
    if isinstance(a, BottomType):
        return b
    if isinstance(b, BottomType):
        return a
    if isinstance(a, DynType) or isinstance(b, DynType):
        return DYN
    if isinstance(a, BaseType) and isinstance(b, BaseType):
        return a if a == b else None
    if isinstance(a, FunType) and isinstance(b, FunType):
        dom = join(a.dom, b.dom)
        cod = join(a.cod, b.cod)
        if dom is None or cod is None:
            return None
        return FunType(dom, cod)
    if isinstance(a, ProdType) and isinstance(b, ProdType):
        left = join(a.left, b.left)
        right = join(a.right, b.right)
        if left is None or right is None:
            return None
        return ProdType(left, right)
    return None


def gradual_meet(a: Type, b: Type) -> Type | None:
    """The "consistency meet" used by the surface language.

    Like :func:`meet` but returns ``None`` instead of introducing ``⊥`` —
    the surface language has no pointed types, so an incompatible position
    means the two types are simply not consistent.
    """
    result = meet(a, b)
    return None if contains_bottom(result) else result
