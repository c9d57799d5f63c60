"""Translation from λB to λC (Figure 4, ``|·|BC``): compile casts to coercions.

The cast translation::

    |ι ⇒p ι|        = idι
    |A→B ⇒p A'→B'|  = |A' ⇒p̄ A| → |B ⇒p B'|
    |A×B ⇒p A'×B'|  = |A ⇒p A'| × |B ⇒p B'|           (extension)
    |? ⇒p ?|        = id?
    |G ⇒p ?|        = G!
    |A ⇒p ?|        = |A ⇒p G| ; G!                    (A ≠ ?, A ≠ G, A ~ G)
    |? ⇒p G|        = G?p
    |? ⇒p A|        = G?p ; |G ⇒p A|                   (A ≠ ?, A ≠ G, A ~ G)

It extends to terms by replacing every cast with the corresponding coercion.
The translation is designed so that λB and λC run in lockstep
(Proposition 11); Proposition 10 says it preserves typing and blame safety.
"""

from __future__ import annotations

from ..core.errors import TypeCheckError
from ..core.labels import Label
from ..core.terms import Cast, Coerce, Term, map_children
from ..core.types import (
    BaseType,
    DynType,
    FunType,
    ProdType,
    Type,
    compatible,
    ground_of,
    is_ground,
)
from ..lambda_c.coercions import (
    Coercion,
    FunCoercion,
    Identity,
    Inject,
    ProdCoercion,
    Project,
    Sequence,
)


def cast_to_coercion(source: Type, label: Label, target: Type) -> Coercion:
    """The coercion ``|A ⇒p B|BC`` for a compatible pair of types."""
    if isinstance(source, DynType) and isinstance(target, DynType):
        return Identity(source)

    if isinstance(source, BaseType) and isinstance(target, BaseType):
        if source != target:
            raise TypeCheckError(f"cast between incompatible base types {source} and {target}")
        return Identity(source)

    if isinstance(source, FunType) and isinstance(target, FunType):
        dom = cast_to_coercion(target.dom, label.complement(), source.dom)
        cod = cast_to_coercion(source.cod, label, target.cod)
        return FunCoercion(dom, cod)

    if isinstance(source, ProdType) and isinstance(target, ProdType):
        left = cast_to_coercion(source.left, label, target.left)
        right = cast_to_coercion(source.right, label, target.right)
        return ProdCoercion(left, right)

    if isinstance(target, DynType):
        if is_ground(source):
            return Inject(source)
        ground = ground_of(source)
        return Sequence(cast_to_coercion(source, label, ground), Inject(ground))

    if isinstance(source, DynType):
        if is_ground(target):
            return Project(target, label)
        ground = ground_of(target)
        return Sequence(Project(ground, label), cast_to_coercion(ground, label, target))

    if not compatible(source, target):
        raise TypeCheckError(f"cast between incompatible types {source} and {target}")
    raise TypeCheckError(f"no translation for cast {source} => {target}")  # pragma: no cover


#: The error a coercion node in a λB input raises.
NOT_LAMBDA_B = "the input to |·|BC must be a λB term (no coercions)"


def term_to_lambda_c(term: Term) -> Term:
    """Translate a λB term to λC by compiling every cast to a coercion."""
    if isinstance(term, Cast):
        subject = term_to_lambda_c(term.subject)
        return Coerce(subject, cast_to_coercion(term.source, term.label, term.target))
    if isinstance(term, Coerce):
        raise TypeCheckError(NOT_LAMBDA_B)
    return map_children(term, term_to_lambda_c)


# A conventional short alias matching the paper's notation.
btoc = term_to_lambda_c
