"""Threesomes as a first-class *runtime* mediator representation.

The paper's §6.1 argues that threesomes (Siek & Wadler 2010) and λS's
space-efficient coercions are two presentations of the same thing.  The rest
of :mod:`repro.threesomes` states the correspondence; this module makes it
*executable*: a :class:`Threesome` ``⟨T ⇐P= S⟩`` — a source type, a mediating
labeled type, and a target type — can stand wherever the machine or the VM
holds a pending canonical coercion, with ``Q ∘ P`` (:func:`compose_labeled`)
doing the job of ``#``.

The representation gets exactly the performance treatment λS coercions got in
:mod:`repro.core.intern` and :func:`repro.lambda_s.coercions.compose_memo`:

* labeled types and threesomes are hash-consed (:func:`intern_labeled`,
  :func:`intern_threesome`) so structural equality on canonical nodes is
  pointer equality;
* composition is memoised on the identity of the interned argument pair
  (:func:`compose_labeled_memo`, :func:`compose_threesome`), so a
  boundary-crossing loop merging the same pending pair every iteration pays
  one dictionary hit per merge.

The mediation semantics itself lives in
:class:`repro.machine.policy.ThreesomePolicy`; the equivalence with the
coercion backend is enforced end to end by
:func:`repro.properties.bisimulation.check_oracle_matrix`.
"""

from __future__ import annotations

from ..core.errors import CoercionTypeError
from ..core.intern import Interner, intern_type
from ..core.types import DYN, DynType, FunType, ProdType, Type
from ..lambda_s.coercions import (
    FailS,
    FunCo,
    IdBase,
    IdDyn,
    Injection,
    ProdCo,
    Projection,
    SpaceCoercion,
    intern_space,
)
from .compose import compose_labeled
from .labeled_types import (
    DYN_LABELED,
    LArrow,
    LBase,
    LDyn,
    LFail,
    LProd,
    LabeledType,
)
from .translate import coercion_of_labeled, labeled_of_coercion


class Threesome:
    """A threesome ``⟨target ⇐mid= source⟩`` used as a runtime mediator.

    The labeled type alone does not determine a coercion — the injection
    suffix and a failure's target ground are recovered from the threesome's
    source and target types — so the runtime representation carries all
    three.  Threesomes are interned: build them through
    :func:`intern_threesome` (or :func:`threesome_of_coercion`) and identity
    doubles as structural equality.
    """

    __slots__ = ("source", "mid", "target")

    def __init__(self, source: Type, mid: LabeledType, target: Type):
        self.source = source
        self.mid = mid
        self.target = target

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Threesome):
            return NotImplemented
        return (
            self.source == other.source
            and self.mid == other.mid
            and self.target == other.target
        )

    def __hash__(self) -> int:
        return hash((Threesome, self.source, self.mid, self.target))

    def __repr__(self) -> str:
        return f"<{self.target} <={self.mid}= {self.source}>"


# ---------------------------------------------------------------------------
# Interning — the labeled-type counterpart of intern_space
# ---------------------------------------------------------------------------

#: The labeled types, in ``.gradb`` tag order.
LABELED_TABLE = Interner(
    "labeled_types",
    {LDyn: "", LBase: "tL", LArrow: "nnL", LProd: "nnL", LFail: "ltL"},
    seeds=(DYN_LABELED,),
)
intern_labeled = LABELED_TABLE.intern
is_interned_labeled = LABELED_TABLE.is_canonical

_threesomes = Interner("threesomes")


def intern_threesome(t: Threesome) -> Threesome:
    """The canonical representative of a threesome; idempotent."""
    if _threesomes.is_canonical(t):
        return t
    aliased = _threesomes.alias_of(t)
    if aliased is not None:
        return aliased
    canon = threesome_node(intern_type(t.source), intern_labeled(t.mid), intern_type(t.target))
    _threesomes.remember_alias(t, canon)
    return canon


def threesome_node(source: Type, mid: LabeledType, target: Type) -> Threesome:
    """The canonical threesome of three canonical parts (an image decoder's
    lookup: it records no alias)."""
    return _threesomes.canonical(
        (id(source), id(mid), id(target)), lambda: Threesome(source, mid, target)
    )


is_interned_threesome = _threesomes.is_canonical


# ---------------------------------------------------------------------------
# Memoised composition — the labeled-type counterpart of compose_memo
# ---------------------------------------------------------------------------

#: Memo tables keyed by the identity of the interned argument pair; canonical
#: nodes live forever, so the ids are stable (exactly like ``_COMPOSE_CACHE``
#: in :mod:`repro.lambda_s.coercions`).
_COMPOSE_LABELED_CACHE: dict[tuple[int, int], LabeledType] = {}
_COMPOSE_THREESOME_CACHE: dict[tuple[int, int], Threesome] = {}
_labeled_hits = 0
_labeled_misses = 0


def compose_labeled_memo(first: LabeledType, second: LabeledType) -> LabeledType:
    """Memoised ``second ∘ first`` on interned labeled types.

    Agrees with :func:`repro.threesomes.compose.compose_labeled` on all
    inputs (property-tested) and always returns an interned result.
    """
    global _labeled_hits, _labeled_misses
    first = intern_labeled(first)
    second = intern_labeled(second)
    key = (id(first), id(second))
    cached = _COMPOSE_LABELED_CACHE.get(key)
    if cached is not None:
        _labeled_hits += 1
        return cached
    result = intern_labeled(compose_labeled(first, second))
    _COMPOSE_LABELED_CACHE[key] = result
    _labeled_misses += 1
    return result


def compose_threesome(first: Threesome, second: Threesome) -> Threesome:
    """Threesome composition ``⟨T ⇐Q= S'⟩ ∘ ⟨S' ⇐P= S⟩ = ⟨T ⇐Q∘P= S⟩``.

    Takes its arguments in temporal order (``first`` applies first), matching
    λS's ``first # second``; memoised on the interned pair's identity — this
    is the threesome backend's hot path, the counterpart of ``compose_memo``.
    """
    first = intern_threesome(first)
    second = intern_threesome(second)
    key = (id(first), id(second))
    cached = _COMPOSE_THREESOME_CACHE.get(key)
    if cached is not None:
        return cached
    mid = compose_labeled_memo(first.mid, second.mid)
    result = intern_threesome(Threesome(first.source, mid, second.target))
    _COMPOSE_THREESOME_CACHE[key] = result
    return result


def compose_labeled_memo_stats() -> dict[str, int]:
    return {
        "entries": len(_COMPOSE_LABELED_CACHE),
        "hits": _labeled_hits,
        "misses": _labeled_misses,
    }


# ---------------------------------------------------------------------------
# The representation maps, lifted to runtime threesomes
# ---------------------------------------------------------------------------


def source_type_of(s: SpaceCoercion) -> Type:
    """A total source type for a canonical coercion.

    Agrees with :func:`repro.lambda_s.coercions.space_source` whenever that
    is determined; where the coercion under-determines its source (an
    unannotated ``⊥GpH``), the source ground ``G`` stands in — it has the
    right dynamicness and the right ground, which is all a threesome's
    mediation semantics consults.
    """
    if isinstance(s, (IdDyn, Projection)):
        return DYN
    if isinstance(s, Injection):
        return source_type_of(s.body)
    if isinstance(s, FailS):
        return s.source if s.source is not None else s.source_ground
    if isinstance(s, IdBase):
        return s.base
    if isinstance(s, FunCo):
        return FunType(target_type_of(s.dom), source_type_of(s.cod))
    if isinstance(s, ProdCo):
        return ProdType(source_type_of(s.left), source_type_of(s.right))
    raise CoercionTypeError(f"unknown canonical coercion: {s!r}")


def target_type_of(s: SpaceCoercion) -> Type:
    """A total target type for a canonical coercion (see :func:`source_type_of`)."""
    if isinstance(s, (IdDyn, Injection)):
        return DYN
    if isinstance(s, Projection):
        return target_type_of(s.body)
    if isinstance(s, FailS):
        return s.target if s.target is not None else s.target_ground
    if isinstance(s, IdBase):
        return s.base
    if isinstance(s, FunCo):
        return FunType(source_type_of(s.dom), target_type_of(s.cod))
    if isinstance(s, ProdCo):
        return ProdType(target_type_of(s.left), target_type_of(s.right))
    raise CoercionTypeError(f"unknown canonical coercion: {s!r}")


#: Memo for :func:`threesome_of_coercion`, keyed by the interned coercion's id.
_OF_COERCION_CACHE: dict[int, Threesome] = {}


def threesome_of_coercion(s: SpaceCoercion) -> Threesome:
    """The runtime threesome of a canonical coercion (memoised, interned)."""
    s = intern_space(s)
    cached = _OF_COERCION_CACHE.get(id(s))
    if cached is not None:
        return cached
    result = intern_threesome(
        Threesome(source_type_of(s), labeled_of_coercion(s), target_type_of(s))
    )
    _OF_COERCION_CACHE[id(s)] = result
    return result


def coercion_of_threesome(t: Threesome) -> SpaceCoercion:
    """Read a runtime threesome back as a canonical coercion (interned).

    Inverse of :func:`threesome_of_coercion` up to interning and the labels
    the representation forgets (a threesome's injection half never blames).
    """
    return intern_space(coercion_of_labeled(t.mid, t.source, t.target))


# ---------------------------------------------------------------------------
# Sizes (for the machines' space accounting)
# ---------------------------------------------------------------------------


def labeled_size(p: LabeledType) -> int:
    """Number of constructors in a labeled type (counterpart of coercion size)."""
    if isinstance(p, (LDyn, LBase, LFail)):
        return 1
    if isinstance(p, LArrow):
        return 1 + labeled_size(p.dom) + labeled_size(p.cod)
    if isinstance(p, LProd):
        return 1 + labeled_size(p.left) + labeled_size(p.right)
    raise CoercionTypeError(f"unknown labeled type: {p!r}")


def threesome_size(t: Threesome) -> int:
    """The size of a threesome mediator: the size of its mediating labeled type."""
    return labeled_size(t.mid)


def is_identity_threesome(t: Threesome) -> bool:
    """Does this threesome mediate nothing (``?`` middle, or ``ι ⇐ι= ι``)?"""
    if isinstance(t.mid, LDyn):
        return True
    return (
        isinstance(t.mid, LBase)
        and t.mid.label is None
        and not isinstance(t.source, DynType)
        and not isinstance(t.target, DynType)
    )
