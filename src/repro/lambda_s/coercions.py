"""Space-efficient coercions and their composition (Figure 5).

Space-efficient coercions are coercions in *canonical form*, following a
three-level grammar (one canonical coercion per equivalence class of λC
coercions under Henglein's equational theory)::

    s, t ::= id?  |  (G?p ; i)  |  i              space-efficient coercions
    i     ::= (g ; G!)  |  g  |  ⊥GpH              intermediate coercions
    g, h  ::= idι  |  s → t  |  s × t              ground coercions

(``s × t`` is the product extension.)  The star of the show is the ten-line
structurally recursive composition operator ``s # t`` — :func:`compose` —
which takes two canonical coercions and returns the canonical form of their
sequential composition.  Height is preserved (Proposition 14), and a canonical
coercion of bounded height has bounded size, which is what gives the
calculus its space bound.

Class hierarchy (mirrors the grammar)::

    SpaceCoercion
    ├── IdDyn                    id?
    ├── Projection(G, p, i)      G?p ; i
    └── Intermediate
        ├── Injection(g, G)      g ; G!
        ├── FailS(G, p, H)       ⊥GpH
        └── GroundCoercion
            ├── IdBase(ι)        idι
            ├── FunCo(s, t)      s → t
            └── ProdCo(s, t)     s × t
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..core.errors import CoercionTypeError
from ..core.labels import Label
from ..core.types import (
    DYN,
    UNKNOWN,
    BaseType,
    DynType,
    FunType,
    ProdType,
    Type,
    UnknownType,
    is_ground,
    types_equal,
)


class SpaceCoercion:
    """A coercion in canonical form (``s``, ``t`` in Figure 5)."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - overridden
        return space_coercion_to_str(self)

    def __repr__(self) -> str:
        return space_coercion_to_str(self)


class Intermediate(SpaceCoercion):
    """An intermediate coercion (``i`` in Figure 5)."""

    __slots__ = ()


class GroundCoercion(Intermediate):
    """A ground coercion (``g``, ``h`` in Figure 5)."""

    __slots__ = ()


@dataclass(frozen=True, repr=False)
class IdDyn(SpaceCoercion):
    """The identity coercion at the dynamic type, ``id?``."""


@dataclass(frozen=True, repr=False)
class Projection(SpaceCoercion):
    """A projection followed by an intermediate coercion, ``G?p ; i``."""

    ground: Type
    label: Label
    body: Intermediate

    def __post_init__(self) -> None:
        if not is_ground(self.ground):
            raise CoercionTypeError(f"projection requires a ground type, got {self.ground}")
        if not isinstance(self.body, Intermediate):
            raise CoercionTypeError(
                f"the body of a projection must be an intermediate coercion, got {self.body!r}"
            )


@dataclass(frozen=True, repr=False)
class Injection(Intermediate):
    """A ground coercion followed by an injection, ``g ; G!``."""

    body: GroundCoercion
    ground: Type

    def __post_init__(self) -> None:
        if not is_ground(self.ground):
            raise CoercionTypeError(f"injection requires a ground type, got {self.ground}")
        if not isinstance(self.body, GroundCoercion):
            raise CoercionTypeError(
                f"the body of an injection must be a ground coercion, got {self.body!r}"
            )


@dataclass(frozen=True, repr=False, eq=False)
class FailS(Intermediate):
    """The failure coercion ``⊥GpH`` in canonical form.

    ``source``/``target`` are optional informal type annotations (as for λC's
    ``Fail``); they are excluded from equality so that composition results
    compare structurally.
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailS):
            return NotImplemented
        return (
            self.source_ground == other.source_ground
            and self.label == other.label
            and self.target_ground == other.target_ground
        )

    def __hash__(self) -> int:
        return hash((FailS, self.source_ground, self.label, self.target_ground))


@dataclass(frozen=True, repr=False)
class IdBase(GroundCoercion):
    """The identity coercion at a base type, ``idι``."""

    base: BaseType

    def __post_init__(self) -> None:
        if not isinstance(self.base, BaseType):
            raise CoercionTypeError(f"idι requires a base type, got {self.base}")


@dataclass(frozen=True, repr=False)
class FunCo(GroundCoercion):
    """A function coercion ``s → t`` between canonical coercions."""

    dom: SpaceCoercion
    cod: SpaceCoercion


@dataclass(frozen=True, repr=False)
class ProdCo(GroundCoercion):
    """A product coercion ``s × t`` between canonical coercions (extension)."""

    left: SpaceCoercion
    right: SpaceCoercion


ID_DYN = IdDyn()


# ---------------------------------------------------------------------------
# Composition  s # t  (Figure 5)
# ---------------------------------------------------------------------------


def compose(s: SpaceCoercion, t: SpaceCoercion) -> SpaceCoercion:
    """The composition ``s # t`` of two canonical coercions, in canonical form.

    Implements the ten equations of Figure 5 (plus the componentwise rule for
    products).  The recursion is structural: the sum of the sizes of the
    arguments strictly decreases at every recursive call, so composition is
    evidently total — this is the paper's key simplification over Siek &
    Wadler (2010) and Greenberg (2013).
    """
    # ⊥GpH # s = ⊥GpH
    if isinstance(s, FailS):
        return FailS(
            s.source_ground,
            s.label,
            s.target_ground,
            source=s.source,
            target=space_target(t) or s.target,
        )

    # id? # t = t
    if isinstance(s, IdDyn):
        return t

    # (G?p ; i) # t = G?p ; (i # t)
    if isinstance(s, Projection):
        body = compose(s.body, t)
        if not isinstance(body, Intermediate):
            raise CoercionTypeError(f"composition produced a non-intermediate body: {body!r}")
        return Projection(s.ground, s.label, body)

    # From here on s is an intermediate coercion: an injection or a ground coercion.
    if isinstance(t, IdDyn):
        # (g ; G!) # id? = g ; G!
        if isinstance(s, Injection):
            return s
        raise CoercionTypeError(f"ill-typed composition: {s} # id?")

    if isinstance(t, Projection):
        # (g ; G!) # (H?p ; i)  =  g # i           if G = H
        #                       =  ⊥GpH            if G ≠ H
        if isinstance(s, Injection):
            if s.ground == t.ground:
                return compose(s.body, t.body)
            return FailS(
                s.ground,
                t.label,
                t.ground,
                source=space_source(s),
                target=space_target(t),
            )
        raise CoercionTypeError(f"ill-typed composition: {s} # {t}")

    if isinstance(t, FailS):
        # g # ⊥GpH = ⊥GpH
        if isinstance(s, GroundCoercion):
            return FailS(
                t.source_ground,
                t.label,
                t.target_ground,
                source=space_source(s) or t.source,
                target=t.target,
            )
        raise CoercionTypeError(f"ill-typed composition: {s} # {t}")

    if isinstance(t, Injection):
        # g # (h ; H!) = (g # h) ; H!
        if isinstance(s, GroundCoercion):
            body = compose(s, t.body)
            if not isinstance(body, GroundCoercion):
                raise CoercionTypeError(f"composition produced a non-ground body: {body!r}")
            return Injection(body, t.ground)
        raise CoercionTypeError(f"ill-typed composition: {s} # {t}")

    # Both are ground coercions.
    if isinstance(s, IdBase) and isinstance(t, IdBase):
        # idι # idι = idι
        if s.base != t.base:
            raise CoercionTypeError(f"ill-typed composition: {s} # {t}")
        return s

    if isinstance(s, FunCo) and isinstance(t, FunCo):
        # (s → t) # (s' → t') = (s' # s) → (t # t')
        return FunCo(compose(t.dom, s.dom), compose(s.cod, t.cod))

    if isinstance(s, ProdCo) and isinstance(t, ProdCo):
        # (s × t) # (s' × t') = (s # s') × (t # t')
        return ProdCo(compose(s.left, t.left), compose(s.right, t.right))

    raise CoercionTypeError(f"ill-typed composition: {s} # {t}")


# ---------------------------------------------------------------------------
# Interning and memoised composition — see repro.core.intern
# ---------------------------------------------------------------------------

from ..core.intern import Interner as _Interner  # noqa: E402  (layered import)

#: The canonical coercions, in ``.gradb`` tag order.  Pointer equality on
#: interned coercions coincides with structural equality (:class:`FailS`
#: annotation variants each keep their own node, as λC's ``Fail`` does).
SPACE_TABLE = _Interner(
    "coercions_s",
    {IdDyn: "", IdBase: "t", Projection: "tln", Injection: "nt", FailS: "tltTT",
     FunCo: "nn", ProdCo: "nn"},
    seeds=(ID_DYN,),
)
intern_space = SPACE_TABLE.intern
is_interned_space = SPACE_TABLE.is_canonical


#: Memo table for :func:`compose_memo`, keyed by the identity of the interned
#: argument pair.  Canonical nodes live forever, so the ids are stable.
_COMPOSE_CACHE: dict[tuple[int, int], SpaceCoercion] = {}
_compose_hits = 0
_compose_misses = 0


def compose_memo(s: SpaceCoercion, t: SpaceCoercion) -> SpaceCoercion:
    """Memoised ``s # t`` on interned coercions (the machine's hot path).

    A boundary-crossing loop merges the *same* pair of pending coercions on
    every iteration; after the first composition each merge is a single
    dictionary hit on the pair's canonical identity.  Agrees with
    :func:`compose` on all inputs (property-tested) and always returns an
    interned result.
    """
    global _compose_hits, _compose_misses
    s = intern_space(s)
    t = intern_space(t)
    key = (id(s), id(t))
    cached = _COMPOSE_CACHE.get(key)
    if cached is not None:
        _compose_hits += 1
        return cached
    result = intern_space(compose(s, t))
    _COMPOSE_CACHE[key] = result
    _compose_misses += 1
    return result


def compose_memo_stats() -> dict[str, int]:
    return {
        "entries": len(_COMPOSE_CACHE),
        "hits": _compose_hits,
        "misses": _compose_misses,
    }


# ---------------------------------------------------------------------------
# Typing
# ---------------------------------------------------------------------------


def space_source(s: SpaceCoercion) -> Type | None:
    """The source type of a canonical coercion (``None`` when under-determined)."""
    if isinstance(s, IdDyn):
        return DYN
    if isinstance(s, Projection):
        return DYN
    if isinstance(s, Injection):
        return space_source(s.body)
    if isinstance(s, FailS):
        return s.source
    if isinstance(s, IdBase):
        return s.base
    if isinstance(s, FunCo):
        dom = space_target(s.dom)
        cod = space_source(s.cod)
        if dom is None or cod is None:
            return None
        return FunType(dom, cod)
    if isinstance(s, ProdCo):
        left = space_source(s.left)
        right = space_source(s.right)
        if left is None or right is None:
            return None
        return ProdType(left, right)
    raise CoercionTypeError(f"unknown canonical coercion: {s!r}")


def space_target(s: SpaceCoercion) -> Type | None:
    """The target type of a canonical coercion (``None`` when under-determined)."""
    if isinstance(s, IdDyn):
        return DYN
    if isinstance(s, Projection):
        return space_target(s.body)
    if isinstance(s, Injection):
        return DYN
    if isinstance(s, FailS):
        return s.target
    if isinstance(s, IdBase):
        return s.base
    if isinstance(s, FunCo):
        dom = space_source(s.dom)
        cod = space_target(s.cod)
        if dom is None or cod is None:
            return None
        return FunType(dom, cod)
    if isinstance(s, ProdCo):
        left = space_target(s.left)
        right = space_target(s.right)
        if left is None or right is None:
            return None
        return ProdType(left, right)
    raise CoercionTypeError(f"unknown canonical coercion: {s!r}")


def check_space_coercion(s: SpaceCoercion, source: Type) -> Type:
    """Check that ``s`` applies at ``source`` and return the target type."""
    if isinstance(source, UnknownType):
        target = space_target(s)
        return target if target is not None else UNKNOWN

    if isinstance(s, IdDyn):
        if not isinstance(source, DynType):
            raise CoercionTypeError(f"id? applied at {source}")
        return DYN
    if isinstance(s, Projection):
        if not isinstance(source, DynType):
            raise CoercionTypeError(f"projection applied at non-dynamic type {source}")
        return check_space_coercion(s.body, s.ground)
    if isinstance(s, Injection):
        check_space_coercion(s.body, source)
        return DYN
    if isinstance(s, FailS):
        if isinstance(source, DynType):
            raise CoercionTypeError("⊥GpH may not be applied at the dynamic type")
        target = s.target if s.target is not None else space_target(s)
        return target if target is not None else UNKNOWN
    if isinstance(s, IdBase):
        if source != s.base:
            raise CoercionTypeError(f"id_{s.base} applied at {source}")
        return s.base
    if isinstance(s, FunCo):
        if not isinstance(source, FunType):
            raise CoercionTypeError(f"function coercion applied at non-function {source}")
        new_dom = space_source(s.dom)
        if new_dom is None:
            new_dom = UNKNOWN
        dom_target = check_space_coercion(s.dom, new_dom)
        if not types_equal(dom_target, source.dom):
            raise CoercionTypeError(
                f"function coercion domain mismatch: {dom_target} vs {source.dom}"
            )
        return FunType(new_dom, check_space_coercion(s.cod, source.cod))
    if isinstance(s, ProdCo):
        if not isinstance(source, ProdType):
            raise CoercionTypeError(f"product coercion applied at non-product {source}")
        return ProdType(
            check_space_coercion(s.left, source.left),
            check_space_coercion(s.right, source.right),
        )
    raise CoercionTypeError(f"unknown canonical coercion: {s!r}")


def lemma13_source_target(s: SpaceCoercion) -> bool:
    """Lemma 13: intermediate coercions never start at ``?``; ground coercions
    start and end at types compatible with one and the same ground type."""
    from ..core.types import compatible, ground_of

    if isinstance(s, Intermediate):
        src = space_source(s)
        if isinstance(src, DynType):
            return False
    if isinstance(s, GroundCoercion):
        src = space_source(s)
        tgt = space_target(s)
        if src is None or tgt is None:
            return True
        if isinstance(src, DynType) or isinstance(tgt, DynType):
            return False
        return ground_of(src) == ground_of(tgt) and compatible(src, ground_of(tgt))
    return True


# ---------------------------------------------------------------------------
# Height, size, identity-freedom, safety
# ---------------------------------------------------------------------------


def height(s: SpaceCoercion) -> int:
    """Height of a canonical coercion, matching the λC definition (Figure 3)."""
    if isinstance(s, IdDyn):
        return 1
    if isinstance(s, Projection):
        return max(1, height(s.body))
    if isinstance(s, Injection):
        return max(height(s.body), 1)
    if isinstance(s, FailS):
        return 1
    if isinstance(s, IdBase):
        return 1
    if isinstance(s, FunCo):
        return max(height(s.dom), height(s.cod)) + 1
    if isinstance(s, ProdCo):
        return max(height(s.left), height(s.right)) + 1
    raise CoercionTypeError(f"unknown canonical coercion: {s!r}")


def size(s: SpaceCoercion) -> int:
    """Number of constructors in a canonical coercion."""
    if isinstance(s, (IdDyn, FailS, IdBase)):
        return 1
    if isinstance(s, Projection):
        return 1 + size(s.body)
    if isinstance(s, Injection):
        return 1 + size(s.body)
    if isinstance(s, FunCo):
        return 1 + size(s.dom) + size(s.cod)
    if isinstance(s, ProdCo):
        return 1 + size(s.left) + size(s.right)
    raise CoercionTypeError(f"unknown canonical coercion: {s!r}")


def is_identity_free(s: SpaceCoercion) -> bool:
    """Is ``s`` an identity-free coercion ``f`` (Figure 5)?

    ``f ::= (G?p ; i) | (g ; G!) | ⊥GpH | (s → t) | (s × t)`` — everything
    except ``id?`` and ``idι``.
    """
    return not isinstance(s, (IdDyn, IdBase))


def is_identity(s: SpaceCoercion) -> bool:
    return isinstance(s, (IdDyn, IdBase))


def subcoercions(s: SpaceCoercion) -> Iterator[SpaceCoercion]:
    yield s
    if isinstance(s, Projection):
        yield from subcoercions(s.body)
    elif isinstance(s, Injection):
        yield from subcoercions(s.body)
    elif isinstance(s, FunCo):
        yield from subcoercions(s.dom)
        yield from subcoercions(s.cod)
    elif isinstance(s, ProdCo):
        yield from subcoercions(s.left)
        yield from subcoercions(s.right)


def coercion_safe_for(s: SpaceCoercion, q: Label) -> bool:
    """``s safe q`` — identical in spirit to λC: ``s`` must not mention ``q``."""
    for sub in subcoercions(s):
        if isinstance(sub, Projection) and sub.label == q:
            return False
        if isinstance(sub, FailS) and sub.label == q:
            return False
    return True


def labels_of(s: SpaceCoercion) -> set[Label]:
    result: set[Label] = set()
    for sub in subcoercions(s):
        if isinstance(sub, Projection):
            result.add(sub.label)
        elif isinstance(sub, FailS):
            result.add(sub.label)
    return result


# ---------------------------------------------------------------------------
# Identity coercions for arbitrary types (|id_A|CS of Figure 6)
# ---------------------------------------------------------------------------


def identity_for(ty: Type) -> SpaceCoercion:
    """The canonical identity coercion at a type: ``|id_A|CS`` from Figure 6."""
    if isinstance(ty, DynType):
        return ID_DYN
    if isinstance(ty, BaseType):
        return IdBase(ty)
    if isinstance(ty, FunType):
        return FunCo(identity_for(ty.dom), identity_for(ty.cod))
    if isinstance(ty, ProdType):
        return ProdCo(identity_for(ty.left), identity_for(ty.right))
    raise CoercionTypeError(f"no identity coercion for type {ty!r}")


def is_canonical_identity(s: SpaceCoercion) -> bool:
    """Is ``s`` the canonical identity at some type (e.g. ``id? → id?``)?"""
    if isinstance(s, (IdDyn, IdBase)):
        return True
    if isinstance(s, FunCo):
        return is_canonical_identity(s.dom) and is_canonical_identity(s.cod)
    if isinstance(s, ProdCo):
        return is_canonical_identity(s.left) and is_canonical_identity(s.right)
    return False


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------


def space_coercion_to_str(s: SpaceCoercion) -> str:
    if isinstance(s, IdDyn):
        return "id?"
    if isinstance(s, Projection):
        return f"({s.ground}?{s.label} ; {space_coercion_to_str(s.body)})"
    if isinstance(s, Injection):
        return f"({space_coercion_to_str(s.body)} ; {s.ground}!)"
    if isinstance(s, FailS):
        return f"Fail[{s.source_ground},{s.label},{s.target_ground}]"
    if isinstance(s, IdBase):
        return f"id[{s.base}]"
    if isinstance(s, FunCo):
        return f"({space_coercion_to_str(s.dom)} -> {space_coercion_to_str(s.cod)})"
    if isinstance(s, ProdCo):
        return f"({space_coercion_to_str(s.left)} x {space_coercion_to_str(s.right)})"
    raise CoercionTypeError(f"unknown canonical coercion: {s!r}")
