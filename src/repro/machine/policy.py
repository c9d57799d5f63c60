"""Mediation policies: how each calculus's machine applies casts/coercions to values.

The three CEK machines share one driver (:mod:`repro.machine.cek`); the only
difference between them is how the mediators written in the program (casts in
λB, coercions in λC, canonical coercions in λS) act on run-time values, and —
crucially for space — whether two pending mediators on the continuation may
be merged into one.  Only the λS policy merges, using the composition
operator ``#``; that single difference is what turns the linear space growth
of the λB/λC machines into the constant pending-mediator footprint of the λS
machine (the benchmark ``benchmarks/bench_space.py`` measures exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import EvaluationError
from ..core.intern import intern_type
from ..core.labels import Label
from ..core.terms import Cast, Coerce, Term
from ..core.types import (
    DynType,
    FunType,
    ProdType,
    Type,
    ground_of,
    is_ground,
    type_size,
)
from ..lambda_c import coercions as co_c
from ..lambda_s import coercions as co_s
from ..threesomes.labeled_types import LArrow, LBase, LDyn, LFail, LProd
from ..threesomes.runtime import (
    Threesome,
    coercion_of_threesome,
    compose_threesome,
    intern_threesome,
    is_interned_threesome,
    threesome_of_coercion,
    threesome_size,
)
from .values import MachineValue, MProxy


class MachineBlame(Exception):
    """Internal signal: applying a mediator allocated blame."""

    def __init__(self, label: Label):
        super().__init__(str(label))
        self.label = label


#: Action codes returned by :meth:`MediationPolicy.classify`: what applying a
#: mediator to a **non-proxy** value does.  ``ACT_IDENTITY`` — the value is
#: returned unchanged; ``ACT_WRAP`` — the value is wrapped in an
#: :class:`~repro.machine.values.MProxy` carrying the mediator;
#: ``ACT_GENERAL`` — anything else (blame, projection errors): callers must
#: fall back to :meth:`MediationPolicy.apply`.  The VM's inline mediator
#: caches (:mod:`repro.compiler.vm`) key these actions on interned mediator
#: identity so the steady-state hot loop replaces the policy's isinstance
#: ladder with one pointer compare.
ACT_IDENTITY, ACT_WRAP, ACT_GENERAL = 0, 1, 2


class MediationPolicy:
    """Interface implemented by the per-calculus policies."""

    name: str = "?"
    #: Which representation pending mediators use ("coercion" for the
    #: calculus-native one; "threesome" for labeled types, λS only).
    mediator: str = "coercion"
    merges_pending_mediators: bool = False

    def term_mediator(self, term: Term) -> object:
        raise NotImplementedError

    def is_mediation_node(self, term: Term) -> bool:
        raise NotImplementedError

    def apply(self, value: MachineValue, mediator: object) -> MachineValue:
        raise NotImplementedError

    def is_fun_proxy(self, mediator: object) -> bool:
        raise NotImplementedError

    def is_prod_proxy(self, mediator: object) -> bool:
        raise NotImplementedError

    def fun_parts(self, mediator: object) -> tuple[object, object]:
        raise NotImplementedError

    def prod_parts(self, mediator: object) -> tuple[object, object]:
        raise NotImplementedError

    def compose(self, first: object, second: object) -> object:
        raise NotImplementedError("this machine does not merge pending mediators")

    def size(self, mediator: object) -> int:
        raise NotImplementedError

    def is_identity(self, mediator: object) -> bool:
        """Is applying this mediator a no-op on *every* machine value?"""
        raise NotImplementedError

    def classify(self, mediator: object) -> int:
        """The ``ACT_*`` action of applying this mediator to a non-proxy value.

        Only merging policies (the VM backends) need this; conservative
        policies may answer :data:`ACT_GENERAL` for everything.
        """
        return ACT_GENERAL


# ---------------------------------------------------------------------------
# λB: casts as mediators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CastMediator:
    """A λB cast ``A ⇒p B`` detached from its subject."""

    source: Type
    target: Type
    label: Label


class BlamePolicy(MediationPolicy):
    """The λB machine's mediation policy (casts, no merging)."""

    name = "B"
    merges_pending_mediators = False

    def is_mediation_node(self, term: Term) -> bool:
        return isinstance(term, Cast)

    def term_mediator(self, term: Term) -> CastMediator:
        assert isinstance(term, Cast)
        # Interned types make the structural comparisons in `apply` cheap:
        # equal interned types are the same object, so `==` exits on identity.
        return CastMediator(intern_type(term.source), intern_type(term.target), term.label)

    def is_fun_proxy(self, mediator: CastMediator) -> bool:
        return isinstance(mediator.source, FunType) and isinstance(mediator.target, FunType)

    def is_prod_proxy(self, mediator: CastMediator) -> bool:
        return isinstance(mediator.source, ProdType) and isinstance(mediator.target, ProdType)

    def _is_injection(self, mediator: CastMediator) -> bool:
        return isinstance(mediator.target, DynType) and is_ground(mediator.source)

    def apply(self, value: MachineValue, m: CastMediator) -> MachineValue:
        source, target, label = m.source, m.target, m.label

        if source == target and not isinstance(source, (FunType, ProdType)):
            return value  # ι ⇒ ι and ? ⇒ ?
        if self.is_fun_proxy(m) or self.is_prod_proxy(m):
            return MProxy(value, m)
        if isinstance(target, DynType):
            if is_ground(source):
                return MProxy(value, m)
            ground = ground_of(source)
            staged = self.apply(value, CastMediator(source, ground, label))
            return self.apply(staged, CastMediator(ground, target, label))
        if isinstance(source, DynType):
            if not is_ground(target):
                ground = ground_of(target)
                staged = self.apply(value, CastMediator(source, ground, label))
                return self.apply(staged, CastMediator(ground, target, label))
            # Projection out of ?: the value must be an injected proxy.
            if isinstance(value, MProxy) and isinstance(value.mediator, CastMediator):
                inner = value.mediator
                if self._is_injection(inner):
                    if inner.source == target:
                        return value.under
                    raise MachineBlame(label)
            raise EvaluationError(f"projection applied to a non-injected value: {value!r}")
        raise EvaluationError(f"no cast rule applies to {m!r}")

    def fun_parts(self, m: CastMediator) -> tuple[CastMediator, CastMediator]:
        source, target = m.source, m.target
        assert isinstance(source, FunType) and isinstance(target, FunType)
        dom = CastMediator(target.dom, source.dom, m.label.complement())
        cod = CastMediator(source.cod, target.cod, m.label)
        return dom, cod

    def prod_parts(self, m: CastMediator) -> tuple[CastMediator, CastMediator]:
        source, target = m.source, m.target
        assert isinstance(source, ProdType) and isinstance(target, ProdType)
        left = CastMediator(source.left, target.left, m.label)
        right = CastMediator(source.right, target.right, m.label)
        return left, right

    def size(self, m: CastMediator) -> int:
        return 1 + type_size(m.source) + type_size(m.target)


# ---------------------------------------------------------------------------
# λC: coercions as mediators (no merging)
# ---------------------------------------------------------------------------


class CoercionPolicy(MediationPolicy):
    """The λC machine's mediation policy (Henglein coercions, no merging)."""

    name = "C"
    merges_pending_mediators = False

    def is_mediation_node(self, term: Term) -> bool:
        return isinstance(term, Coerce) and isinstance(term.coercion, co_c.Coercion)

    def term_mediator(self, term: Term) -> co_c.Coercion:
        assert isinstance(term, Coerce)
        return co_c.intern_coercion(term.coercion)

    def is_fun_proxy(self, mediator: co_c.Coercion) -> bool:
        return isinstance(mediator, co_c.FunCoercion)

    def is_prod_proxy(self, mediator: co_c.Coercion) -> bool:
        return isinstance(mediator, co_c.ProdCoercion)

    def apply(self, value: MachineValue, c: co_c.Coercion) -> MachineValue:
        if isinstance(c, co_c.Identity):
            return value
        if isinstance(c, co_c.Sequence):
            return self.apply(self.apply(value, c.first), c.second)
        if isinstance(c, co_c.Fail):
            raise MachineBlame(c.label)
        if isinstance(c, co_c.Project):
            if isinstance(value, MProxy) and isinstance(value.mediator, co_c.Inject):
                if value.mediator.ground == c.ground:
                    return value.under
                raise MachineBlame(c.label)
            raise EvaluationError(f"projection applied to a non-injected value: {value!r}")
        if isinstance(c, (co_c.FunCoercion, co_c.ProdCoercion, co_c.Inject)):
            return MProxy(value, c)
        raise EvaluationError(f"unknown coercion: {c!r}")

    def fun_parts(self, c: co_c.FunCoercion) -> tuple[co_c.Coercion, co_c.Coercion]:
        return c.dom, c.cod

    def prod_parts(self, c: co_c.ProdCoercion) -> tuple[co_c.Coercion, co_c.Coercion]:
        return c.left, c.right

    def size(self, c: co_c.Coercion) -> int:
        return co_c.size(c)


# ---------------------------------------------------------------------------
# λS: canonical coercions as mediators, with merging
# ---------------------------------------------------------------------------


class SpacePolicy(MediationPolicy):
    """The λS machine's mediation policy: canonical coercions merged with ``#``."""

    name = "S"
    merges_pending_mediators = True

    def __init__(self) -> None:
        # Sizes of interned mediators, keyed by identity: interned nodes are
        # immortal, so the ids are stable.  The machine recomputes the size of
        # the same pending coercion on every push/merge; this makes it O(1).
        self._size_cache: dict[int, int] = {}

    def is_mediation_node(self, term: Term) -> bool:
        return isinstance(term, Coerce) and isinstance(term.coercion, co_s.SpaceCoercion)

    def term_mediator(self, term: Term) -> co_s.SpaceCoercion:
        assert isinstance(term, Coerce)
        # Interning here keeps every mediator the machine ever holds canonical,
        # so the compose_memo cache below is hit on the node's identity.
        return co_s.intern_space(term.coercion)

    def is_fun_proxy(self, mediator: co_s.SpaceCoercion) -> bool:
        return isinstance(mediator, co_s.FunCo)

    def is_prod_proxy(self, mediator: co_s.SpaceCoercion) -> bool:
        return isinstance(mediator, co_s.ProdCo)

    def apply(self, value: MachineValue, s: co_s.SpaceCoercion) -> MachineValue:
        # A proxied value absorbs the new coercion by composition, so a value
        # never carries more than one mediator — the value-level counterpart
        # of merging pending continuation frames.
        if isinstance(value, MProxy) and isinstance(value.mediator, co_s.SpaceCoercion):
            return self.apply(value.under, co_s.compose_memo(value.mediator, s))
        if isinstance(s, (co_s.IdBase, co_s.IdDyn)):
            return value
        if isinstance(s, co_s.FailS):
            raise MachineBlame(s.label)
        if isinstance(s, co_s.Projection):
            raise EvaluationError(f"projection applied to a non-injected value: {value!r}")
        if isinstance(s, (co_s.FunCo, co_s.ProdCo, co_s.Injection)):
            return MProxy(value, s)
        raise EvaluationError(f"unknown canonical coercion: {s!r}")

    def fun_parts(self, s: co_s.FunCo) -> tuple[co_s.SpaceCoercion, co_s.SpaceCoercion]:
        return s.dom, s.cod

    def prod_parts(self, s: co_s.ProdCo) -> tuple[co_s.SpaceCoercion, co_s.SpaceCoercion]:
        return s.left, s.right

    def compose(self, first: co_s.SpaceCoercion, second: co_s.SpaceCoercion) -> co_s.SpaceCoercion:
        return co_s.compose_memo(first, second)

    def size(self, s: co_s.SpaceCoercion) -> int:
        if not co_s.is_interned_space(s):
            return co_s.size(s)
        cached = self._size_cache.get(id(s))
        if cached is None:
            cached = co_s.size(s)
            self._size_cache[id(s)] = cached
        return cached

    def is_identity(self, s: co_s.SpaceCoercion) -> bool:
        # The *canonical* identities (id? → id?, idι × idι, …) also act as
        # no-ops: their applications only wrap values in proxies whose parts
        # are identities again.  Used by the optimizer's static elision.
        return co_s.is_canonical_identity(s)

    def classify(self, s: co_s.SpaceCoercion) -> int:
        if isinstance(s, (co_s.IdBase, co_s.IdDyn)):
            return ACT_IDENTITY
        if isinstance(s, (co_s.FunCo, co_s.ProdCo, co_s.Injection)):
            return ACT_WRAP
        return ACT_GENERAL  # FailS blames, Projection errors — via apply()


# ---------------------------------------------------------------------------
# λS with threesomes: labeled types as mediators, merged with ∘
# ---------------------------------------------------------------------------


class ThreesomePolicy(MediationPolicy):
    """The λS machine's *threesome* mediator backend (§6.1 made executable).

    Interprets exactly the terms :class:`SpacePolicy` does — ``Coerce`` nodes
    carrying canonical coercions — but represents every runtime mediator as a
    :class:`~repro.threesomes.runtime.Threesome` ``⟨T ⇐P= S⟩`` and merges
    pending mediators with labeled-type composition ``∘``
    (:func:`~repro.threesomes.runtime.compose_threesome`, memoised on interned
    identity like ``#``).  Observables — values, blame labels, timeouts, and
    the constant pending-mediator footprint — agree with the coercion backend
    (enforced by ``check_mediator_oracle``).
    """

    name = "S"
    mediator = "threesome"
    merges_pending_mediators = True

    def __init__(self) -> None:
        # All keyed by the identity of interned threesomes (immortal nodes,
        # stable ids) — the same discipline as SpacePolicy's size cache.  The
        # part caches matter most: a proxied call applies fun_parts on the
        # same mediator once per iteration, and rebuilding + re-interning two
        # threesomes each time would cost the backend its parity with λS.
        self._size_cache: dict[int, int] = {}
        self._fun_parts_cache: dict[int, tuple] = {}
        self._prod_parts_cache: dict[int, tuple] = {}
        # What applying the mediator to a *non-proxy* value does, resolved
        # once per interned threesome: the isinstance ladder over (mid,
        # source, target) collapses to a dictionary hit on the hot path.
        self._action_cache: dict[int, int] = {}
        # The optimizer's identity test, answered once per interned
        # threesome: it reads the threesome back as a coercion to decide.
        self._identity_cache: dict[int, bool] = {}

    def is_mediation_node(self, term: Term) -> bool:
        return isinstance(term, Coerce) and isinstance(term.coercion, co_s.SpaceCoercion)

    def term_mediator(self, term: Term) -> Threesome:
        assert isinstance(term, Coerce)
        return threesome_of_coercion(term.coercion)

    def is_fun_proxy(self, t: Threesome) -> bool:
        return (
            isinstance(t.mid, LArrow)
            and not isinstance(t.source, DynType)
            and not isinstance(t.target, DynType)
        )

    def is_prod_proxy(self, t: Threesome) -> bool:
        return (
            isinstance(t.mid, LProd)
            and not isinstance(t.source, DynType)
            and not isinstance(t.target, DynType)
        )

    #: Action codes for :meth:`apply` on non-proxy values.
    _IDENTITY, _BLAME, _PROXY, _PROJECT_ERROR = range(4)

    def _classify(self, t: Threesome) -> int:
        """What applying ``t`` to a non-proxy value does (see :meth:`apply`)."""
        mid = t.mid
        if isinstance(mid, LDyn):
            return self._IDENTITY  # ⟨? ⇐?= ?⟩
        if isinstance(t.source, DynType):
            # A dynamic source means a projection prefix: only an injected
            # proxy can satisfy it, and proxies are absorbed before this.
            return self._PROJECT_ERROR
        if isinstance(mid, LFail):
            return self._BLAME
        if isinstance(t.target, DynType):
            return self._PROXY  # injection into ?
        if isinstance(mid, LBase):
            return self._IDENTITY  # ⟨ι ⇐ι= ι⟩
        if isinstance(mid, (LArrow, LProd)):
            return self._PROXY  # higher-order proxy
        raise EvaluationError(f"unknown threesome mediator: {t!r}")

    def apply(self, value: MachineValue, t: Threesome) -> MachineValue:
        # A proxied value absorbs the new threesome by composition, mirroring
        # the λS policy's value-level merge.
        if isinstance(value, MProxy) and isinstance(value.mediator, Threesome):
            return self.apply(value.under, compose_threesome(value.mediator, t))
        action = self._action_cache.get(id(t))
        if action is None:
            t = intern_threesome(t)
            action = self._classify(t)
            self._action_cache[id(t)] = action
        if action == 0:  # _IDENTITY
            return value
        if action == 2:  # _PROXY
            return MProxy(value, t)
        if action == 1:  # _BLAME
            raise MachineBlame(t.mid.fail_label)
        raise EvaluationError(f"projection applied to a non-injected value: {value!r}")

    def _split_types(self, t, structural_type):
        source = t.source if isinstance(t.source, structural_type) else None
        target = t.target if isinstance(t.target, structural_type) else None
        if source is None or target is None:
            raise EvaluationError(f"malformed structural threesome: {t!r}")
        return source, target

    def fun_parts(self, t: Threesome) -> tuple[Threesome, Threesome]:
        t = intern_threesome(t)
        cached = self._fun_parts_cache.get(id(t))
        if cached is not None:
            return cached
        source, target = self._split_types(t, FunType)
        dom = intern_threesome(Threesome(target.dom, t.mid.dom, source.dom))
        cod = intern_threesome(Threesome(source.cod, t.mid.cod, target.cod))
        parts = (dom, cod)
        self._fun_parts_cache[id(t)] = parts
        return parts

    def prod_parts(self, t: Threesome) -> tuple[Threesome, Threesome]:
        t = intern_threesome(t)
        cached = self._prod_parts_cache.get(id(t))
        if cached is not None:
            return cached
        source, target = self._split_types(t, ProdType)
        left = intern_threesome(Threesome(source.left, t.mid.left, target.left))
        right = intern_threesome(Threesome(source.right, t.mid.right, target.right))
        parts = (left, right)
        self._prod_parts_cache[id(t)] = parts
        return parts

    def compose(self, first: Threesome, second: Threesome) -> Threesome:
        return compose_threesome(first, second)

    def size(self, t: Threesome) -> int:
        if not is_interned_threesome(t):
            return threesome_size(t)
        cached = self._size_cache.get(id(t))
        if cached is None:
            cached = threesome_size(t)
            self._size_cache[id(t)] = cached
        return cached

    def is_identity(self, t: Threesome) -> bool:
        # Mirror SpacePolicy.is_identity through the §6.1 representation map,
        # so the optimizer elides exactly the same mediators on both
        # backends (canonical identities included).
        cached = self._identity_cache.get(id(t))
        if cached is None:
            t = intern_threesome(t)
            cached = co_s.is_canonical_identity(coercion_of_threesome(t))
            self._identity_cache[id(t)] = cached
        return cached

    def classify(self, t: Threesome) -> int:
        action = self._action_cache.get(id(t))
        if action is None:
            t = intern_threesome(t)
            action = self._classify(t)
            self._action_cache[id(t)] = action
        if action == self._IDENTITY:
            return ACT_IDENTITY
        if action == self._PROXY:
            return ACT_WRAP
        return ACT_GENERAL  # _BLAME and _PROJECT_ERROR — via apply()


BLAME_POLICY = BlamePolicy()
COERCION_POLICY = CoercionPolicy()
SPACE_POLICY = SpacePolicy()
THREESOME_POLICY = ThreesomePolicy()
