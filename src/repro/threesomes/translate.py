"""Conversions between canonical (λS) coercions and labeled types (threesomes).

``labeled_of_coercion`` is the representation map the paper's §6.1 alludes to:
every canonical coercion determines a labeled type (the threesome's mediating
type); the injection suffix and the failure's target ground are *not*
recorded because a threesome recovers them from its source and target types.
``coercion_of_labeled`` goes back, given those types.
"""

from __future__ import annotations

from ..core.errors import CoercionTypeError
from ..core.labels import BULLET, Label
from ..core.types import BaseType, DynType, FunType, ProdType, Type, ground_of
from ..lambda_s.coercions import (
    FailS,
    FunCo,
    GroundCoercion,
    IdBase,
    IdDyn,
    Injection,
    ProdCo,
    Projection,
    SpaceCoercion,
)
from ..translate.b_to_s import cast_to_space
from .labeled_types import (
    DYN_LABELED,
    LArrow,
    LBase,
    LDyn,
    LFail,
    LProd,
    LabeledType,
    with_top_label,
)


def labeled_of_coercion(s: SpaceCoercion) -> LabeledType:
    """The labeled type (threesome middle) corresponding to a canonical coercion."""
    if isinstance(s, IdDyn):
        return DYN_LABELED
    if isinstance(s, Projection):
        return with_top_label(labeled_of_coercion(s.body), s.label)
    if isinstance(s, Injection):
        return labeled_of_coercion(s.body)
    if isinstance(s, FailS):
        return LFail(s.label, s.source_ground, None)
    if isinstance(s, IdBase):
        return LBase(s.base, None)
    if isinstance(s, FunCo):
        return LArrow(labeled_of_coercion(s.dom), labeled_of_coercion(s.cod), None)
    if isinstance(s, ProdCo):
        return LProd(labeled_of_coercion(s.left), labeled_of_coercion(s.right), None)
    raise CoercionTypeError(f"unknown canonical coercion {s!r}")


def labeled_of_cast(source: Type, label: Label, target: Type) -> LabeledType:
    """The threesome of a single cast ``⟨B ⇐p A⟩`` (via its canonical coercion)."""
    return labeled_of_coercion(cast_to_space(source, label, target))


def coercion_of_labeled(p: LabeledType, source: Type, target: Type) -> SpaceCoercion:
    """Interpret a threesome ``⟨target ⇐P= source⟩`` as a canonical coercion.

    The labeled type supplies the labels of the projection half; the injection
    half (toward ``target``) never blames, so it uses the ``•`` label.
    """
    if isinstance(p, LDyn):
        if not isinstance(source, DynType) or not isinstance(target, DynType):
            raise CoercionTypeError("the ? labeled type mediates only between ? and ?")
        from ..lambda_s.coercions import ID_DYN

        return ID_DYN

    if isinstance(p, LFail):
        # Fail as soon as the (possible) projection out of the source succeeds.
        target_ground = _other_ground(p.ground) if isinstance(target, DynType) else ground_of(target)
        if target_ground == p.ground:
            target_ground = _other_ground(p.ground)
        body: SpaceCoercion = FailS(p.ground, p.fail_label, target_ground, target=target)
        if isinstance(source, DynType):
            return Projection(p.ground, p.label if p.label is not None else BULLET, body)
        return body

    # Structural labeled types: build mid-type coercion, then add the
    # projection (from a dynamic source) and injection (into a dynamic target).
    if isinstance(p, LBase):
        middle: GroundCoercion = IdBase(p.base)
        mid_type: Type = p.base
    elif isinstance(p, LArrow):
        source_fun = source if isinstance(source, FunType) else FunType(_dyn(), _dyn())
        target_fun = target if isinstance(target, FunType) else FunType(_dyn(), _dyn())
        dom = coercion_of_labeled(p.dom, target_fun.dom, source_fun.dom)
        cod = coercion_of_labeled(p.cod, source_fun.cod, target_fun.cod)
        middle = FunCo(dom, cod)
        mid_type = FunType(_dyn(), _dyn())
    elif isinstance(p, LProd):
        source_prod = source if isinstance(source, ProdType) else ProdType(_dyn(), _dyn())
        target_prod = target if isinstance(target, ProdType) else ProdType(_dyn(), _dyn())
        left = coercion_of_labeled(p.left, source_prod.left, target_prod.left)
        right = coercion_of_labeled(p.right, source_prod.right, target_prod.right)
        middle = ProdCo(left, right)
        mid_type = ProdType(_dyn(), _dyn())
    else:
        raise CoercionTypeError(f"unknown labeled type {p!r}")

    result: SpaceCoercion = middle
    if isinstance(target, DynType):
        ground = ground_of(mid_type) if not isinstance(mid_type, BaseType) else mid_type
        result = Injection(middle, ground)
    if isinstance(source, DynType):
        from ..lambda_s.coercions import Intermediate

        ground = ground_of(mid_type) if not isinstance(mid_type, BaseType) else mid_type
        label = p.label if p.label is not None else BULLET
        if not isinstance(result, Intermediate):
            raise CoercionTypeError("projection body must be an intermediate coercion")
        result = Projection(ground, label, result)
    return result


def _dyn() -> Type:
    from ..core.types import DYN

    return DYN


def _other_ground(ground: Type) -> Type:
    from ..core.types import BOOL, INT

    return BOOL if ground != BOOL else INT
