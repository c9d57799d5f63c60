"""Syntax of the blame calculus λB (Figure 1): values and well-formedness.

λB terms are the shared terms of :mod:`repro.core.terms` together with casts
``M : A ⇒p B`` and ``blame p``; coercion applications are *not* λB terms.

Values are::

    V, W ::= k | λx:A.N | V : A→B ⇒p A'→B' | V : G ⇒p ? | (V, W) | V : A×B ⇒p A'×B'

i.e. constants, abstractions, casts of values between function (resp.
product) types, and casts of values from a ground type to the dynamic type.
"""

from __future__ import annotations

from ..core.terms import (
    App,
    Blame,
    Cast,
    Coerce,
    Const,
    Fix,
    Fst,
    If,
    Lam,
    Let,
    Op,
    Pair,
    Snd,
    Term,
    Var,
    subterms,
)
from ..core.types import DynType, FunType, ProdType, is_ground

#: The term constructors a λB term may use.
LAMBDA_B_NODES = (Const, Op, Var, Lam, App, Cast, Blame, If, Let, Fix, Pair, Fst, Snd)


def is_lambda_b_term(term: Term) -> bool:
    """Does ``term`` use only λB constructors (in particular, no coercions)?"""
    return all(not isinstance(t, Coerce) for t in subterms(term))


def is_value(term: Term) -> bool:
    """Is ``term`` a λB value?"""
    if isinstance(term, (Const, Lam)):
        return True
    if isinstance(term, Pair):
        return is_value(term.left) and is_value(term.right)
    if isinstance(term, Cast):
        if not is_value(term.subject):
            return False
        source, target = term.source, term.target
        if isinstance(source, FunType) and isinstance(target, FunType):
            return True
        if isinstance(source, ProdType) and isinstance(target, ProdType):
            return True
        if isinstance(target, DynType) and is_ground(source):
            return True
    return False


def casts_in(term: Term) -> list[Cast]:
    """All cast nodes occurring in a term."""
    return [t for t in subterms(term) if isinstance(t, Cast)]


def blames_in(term: Term) -> list[Blame]:
    """All ``blame p`` nodes occurring in a term."""
    return [t for t in subterms(term) if isinstance(t, Blame)]
