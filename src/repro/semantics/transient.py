"""Transient enforcement: shallow ground-tag checks at use sites.

The Transient discipline (Vitousek et al.; compared against Natural and
Erasure by the blame-evaluation literature) keeps none of λS's wrapper
machinery: a canonical coercion is abstracted to the sequence of *ground-tag
checks* its projections would perform, and everything structural — the
argument/result coercions inside ``s → t``, the component coercions inside
``s × t``, and every injection — is dropped.  A check ``(G, p)`` asserts
that the value at hand carries tag ``G`` (base constant, function, or pair)
and blames ``p`` otherwise; a mediator never wraps, so there are no proxies
and no deferred higher-order obligations.  Blame may therefore diverge from
Natural *by design*: Transient blames only where a tag is inspected, with
the label of the projection that demanded it.

Space is trivially bounded: after composition deduplicates by ground, a
:class:`TransientCheck` holds at most one check per distinct ground type of
the program (a fixed, finite set), so the one-slot pending-mediator
discipline of the λS machine carries over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import EvaluationError
from ..core.labels import Label
from ..core.terms import Coerce, Term
from ..core.types import BaseType, FunType, ProdType, Type
from ..lambda_s import coercions as co_s
from ..machine.policy import (
    ACT_GENERAL,
    ACT_IDENTITY,
    MachineBlame,
    MediationPolicy,
)
from ..machine.values import MachineValue, MConst, MFunctionValue, MPair


@dataclass(frozen=True)
class TransientCheck:
    """A run-time mediator of the transient backend.

    ``checks`` is the ordered sequence of ``(ground, label)`` tag assertions
    to run against the value; ``fail`` is the label of an unconditional
    failure (``⊥GpH``) reached after every check passes, or ``None``.
    """

    checks: tuple[tuple[Type, Label], ...]
    fail: Label | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{ground}?{label}" for ground, label in self.checks]
        if self.fail is not None:
            parts.append(f"⊥{self.fail}")
        return "⟪" + ("; ".join(parts) if parts else "pass") + "⟫"


# Interned nodes, keyed structurally: grounds and labels are frozen
# dataclasses, so the key is hashable and equal checks share one node.  The
# pool's identity-keyed dedup (``add_canonical_mediator``) and the policy's
# memo tables below all rely on this canonicalization.
_INTERNED: dict[tuple, TransientCheck] = {}


def intern_transient(t: TransientCheck) -> TransientCheck:
    """The canonical node equal to ``t`` (interning by structure)."""
    key = (t.checks, t.fail)
    found = _INTERNED.get(key)
    if found is None:
        _INTERNED[key] = t
        found = t
    return found


#: The transient mediator that checks nothing (every ground coercion,
#: injection, and identity abstracts to this).
NO_CHECK = intern_transient(TransientCheck(()))


def _derive(s: co_s.SpaceCoercion) -> tuple[list[tuple[Type, Label]], Label | None]:
    """The tag checks a canonical coercion performs, in application order."""
    if isinstance(s, co_s.Projection):
        checks, fail = _derive(s.body)
        return [(s.ground, s.label), *checks], fail
    if isinstance(s, co_s.Injection):
        return _derive(s.body)
    if isinstance(s, co_s.FailS):
        return [], s.label
    if isinstance(s, (co_s.IdDyn, co_s.IdBase, co_s.FunCo, co_s.ProdCo)):
        return [], None
    raise EvaluationError(f"unknown canonical coercion: {s!r}")


_OF_COERCION: dict[int, TransientCheck] = {}


def transient_of_coercion(s: co_s.SpaceCoercion) -> TransientCheck:
    """Abstract a canonical λS coercion to its transient tag checks.

    Memoised on the interned coercion's identity, mirroring
    ``threesome_of_coercion``: translating the same pool entry twice yields
    the same :class:`TransientCheck` node.
    """
    s = co_s.intern_space(s)
    found = _OF_COERCION.get(id(s))
    if found is None:
        checks, fail = _derive(s)
        found = intern_transient(TransientCheck(tuple(checks), fail))
        _OF_COERCION[id(s)] = found
    return found


_COMPOSED: dict[tuple[int, int], TransientCheck] = {}


def compose_transient(first: TransientCheck, second: TransientCheck) -> TransientCheck:
    """Merge two pending transient mediators; ``first`` applies first.

    An unconditional failure in ``first`` shadows everything after it.
    Otherwise the check sequences concatenate, deduplicated by ground type
    keeping the *earliest* occurrence: once ``(G, p)`` has passed, any later
    ``(G, q)`` must pass too, and if it fails the blame falls on ``p``.  The
    result therefore holds at most one check per distinct ground — the
    bounded size that makes this backend space-efficient.
    """
    first = intern_transient(first)
    second = intern_transient(second)
    key = (id(first), id(second))
    found = _COMPOSED.get(key)
    if found is not None:
        return found
    if first.fail is not None:
        result = first
    else:
        checks = list(first.checks)
        seen = {ground for ground, _ in checks}
        for ground, label in second.checks:
            if ground not in seen:
                seen.add(ground)
                checks.append((ground, label))
        result = intern_transient(TransientCheck(tuple(checks), second.fail))
    _COMPOSED[key] = result
    return result


class TransientPolicy(MediationPolicy):
    """The λS machine/VM with transient enforcement (shallow tag checks).

    Interprets exactly the terms :class:`~repro.machine.policy.SpacePolicy`
    does — ``Coerce`` nodes carrying canonical coercions — but every mediator
    is abstracted to a :class:`TransientCheck`.  Values are never wrapped
    (``is_fun_proxy``/``is_prod_proxy`` are constantly false, so the proxy
    branches of the machines stay idle), and pending mediators merge through
    :func:`compose_transient`.
    """

    name = "S"
    mediator = "transient"
    merges_pending_mediators = True

    def is_mediation_node(self, term: Term) -> bool:
        return isinstance(term, Coerce) and isinstance(term.coercion, co_s.SpaceCoercion)

    def term_mediator(self, term: Term) -> TransientCheck:
        assert isinstance(term, Coerce)
        return transient_of_coercion(term.coercion)

    def is_fun_proxy(self, t: TransientCheck) -> bool:
        return False

    def is_prod_proxy(self, t: TransientCheck) -> bool:
        return False

    def fun_parts(self, t: TransientCheck) -> tuple:
        raise EvaluationError("transient mediators never form function proxies")

    def prod_parts(self, t: TransientCheck) -> tuple:
        raise EvaluationError("transient mediators never form pair proxies")

    def apply(self, value: MachineValue, t: TransientCheck) -> MachineValue:
        for ground, label in t.checks:
            if isinstance(ground, BaseType):
                if not (isinstance(value, MConst) and value.type == ground):
                    raise MachineBlame(label)
            elif isinstance(ground, FunType):
                if not isinstance(value, MFunctionValue):
                    raise MachineBlame(label)
            elif isinstance(ground, ProdType):
                if not isinstance(value, MPair):
                    raise MachineBlame(label)
            else:
                raise EvaluationError(f"non-ground transient check: {ground!r}")
        if t.fail is not None:
            raise MachineBlame(t.fail)
        return value

    def compose(self, first: TransientCheck, second: TransientCheck) -> TransientCheck:
        return compose_transient(first, second)

    def size(self, t: TransientCheck) -> int:
        return 1 + len(t.checks) + (1 if t.fail is not None else 0)

    def is_identity(self, t: TransientCheck) -> bool:
        return not t.checks and t.fail is None

    def classify(self, t: TransientCheck) -> int:
        # Checking a tag can blame, so anything non-empty goes through apply.
        return ACT_IDENTITY if self.is_identity(t) else ACT_GENERAL


TRANSIENT_POLICY = TransientPolicy()
