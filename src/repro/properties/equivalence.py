"""Observable outcomes and Kleene-style equivalence across calculi.

Contextual equivalence (Definition 6) quantifies over all contexts, which is
not directly executable.  The checkers here provide the two practical
approximations used throughout the test suite:

* *Kleene equivalence*: evaluate both terms at the top level and compare the
  outcomes — both converge (to related values), both blame the same label, or
  both time out (standing in for divergence).
* *Contextual probing*: additionally run both terms inside a family of small
  closing/observing contexts (applying function results to sample arguments,
  projecting pairs, forcing the result to a base type) and require Kleene
  equivalence in every probe.  This is the evidence we collect for the full
  abstraction results (Propositions 12 and 18) and for Lemma 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.labels import LabelSupply
from ..core.terms import (
    App,
    Cast,
    Coerce,
    Const,
    Fst,
    Snd,
    Term,
    erase,
    alpha_equal,
)
from ..core.types import (
    BOOL,
    DYN,
    INT,
    BaseType,
    DynType,
    FunType,
    ProdType,
    Type,
)
from ..lambda_b.reduction import Outcome
from .calculi import CalculusOps


@dataclass(frozen=True)
class Observation:
    """A normalised observable: value (erased), blame label, or timeout."""

    kind: str
    payload: object = None

    @staticmethod
    def of(outcome: Outcome) -> "Observation":
        if outcome.is_value:
            return Observation("value", erase(outcome.term))
        if outcome.is_blame:
            return Observation("blame", outcome.label)
        return Observation("timeout")


def observations_equal(a: Observation, b: Observation) -> bool:
    """Equality of observations; values compare up to α-equivalence after erasure."""
    if a.kind != b.kind:
        return False
    if a.kind == "value":
        left, right = a.payload, b.payload
        if isinstance(left, Const) and isinstance(right, Const):
            return left.value == right.value and left.type == right.type
        return alpha_equal(left, right)
    if a.kind == "blame":
        return a.payload == b.payload
    return True


def kleene_equivalent(
    calculus_a: CalculusOps,
    term_a: Term,
    calculus_b: CalculusOps,
    term_b: Term,
    fuel: int = 20_000,
) -> bool:
    """Do the two terms have the same top-level observable outcome?"""
    out_a = Observation.of(calculus_a.run(term_a, fuel))
    out_b = Observation.of(calculus_b.run(term_b, fuel))
    return observations_equal(out_a, out_b)


# ---------------------------------------------------------------------------
# Contextual probing
# ---------------------------------------------------------------------------


def _sample_arguments(ty: Type, supply: LabelSupply) -> list[Term]:
    """Closed sample arguments of a given type, used to probe function values."""
    from ..core.terms import Lam, const_bool, const_int

    if isinstance(ty, BaseType):
        if ty == INT:
            return [const_int(0), const_int(7)]
        if ty == BOOL:
            return [const_bool(True), const_bool(False)]
        if ty.name == "str":
            return [Const("probe", ty)]
        return [Const(None, ty)]
    if isinstance(ty, DynType):
        return [
            Cast(const_int(3), INT, DYN, supply.fresh("probe-int")),
            Cast(const_bool(True), BOOL, DYN, supply.fresh("probe-bool")),
        ]
    if isinstance(ty, FunType):
        body = _sample_arguments(ty.cod, supply)[0]
        return [Lam("probe_x", ty.dom, body)]
    if isinstance(ty, ProdType):
        left = _sample_arguments(ty.left, supply)[0]
        right = _sample_arguments(ty.right, supply)[0]
        from ..core.terms import Pair

        return [Pair(left, right)]
    return []


def probe_contexts(result_type: Type, depth: int = 2) -> list[Callable[[Term], Term]]:
    """A family of observing contexts for values of ``result_type``.

    Each context is a function from a term to a closed term whose evaluation
    forces more of the value's behaviour (applying functions, projecting
    pairs, projecting out of the dynamic type).
    """
    supply = LabelSupply(prefix="probe")
    contexts: list[Callable[[Term], Term]] = [lambda m: m]
    if depth <= 0:
        return contexts

    if isinstance(result_type, FunType):
        for arg in _sample_arguments(result_type.dom, supply):
            for inner in probe_contexts(result_type.cod, depth - 1):
                contexts.append(lambda m, a=arg, k=inner: k(App(m, a)))
    if isinstance(result_type, ProdType):
        for inner in probe_contexts(result_type.left, depth - 1):
            contexts.append(lambda m, k=inner: k(Fst(m)))
        for inner in probe_contexts(result_type.right, depth - 1):
            contexts.append(lambda m, k=inner: k(Snd(m)))
    if isinstance(result_type, DynType):
        for ground in (INT, BOOL, FunType(DYN, DYN)):
            lbl = supply.fresh(f"obs-{ground}")
            for inner in probe_contexts(ground, depth - 1):
                contexts.append(lambda m, g=ground, l=lbl, k=inner: k(Cast(m, DYN, g, l)))
    return contexts


def _translate_probe(context: Callable[[Term], Term], term: Term, calculus: CalculusOps) -> Term:
    """Apply a λB-flavoured probe context to a term of any calculus.

    Probes are built from casts; for λC and λS the surrounding casts are
    translated into the calculus's own coercions.
    """
    from ..translate.b_to_c import cast_to_coercion
    from ..translate.c_to_s import coercion_to_space

    probed = context(term)

    def adapt(t: Term) -> Term:
        if t is term:
            return term
        if isinstance(t, Cast):
            inner = adapt(t.subject)
            if calculus.name == "B":
                return Cast(inner, t.source, t.target, t.label)
            coercion = cast_to_coercion(t.source, t.label, t.target)
            if calculus.name == "S":
                return Coerce(inner, coercion_to_space(coercion))
            return Coerce(inner, coercion)
        from ..core.terms import map_children

        return map_children(t, adapt)

    return adapt(probed)


def contextually_equivalent(
    calculus_a: CalculusOps,
    term_a: Term,
    calculus_b: CalculusOps,
    term_b: Term,
    result_type: Type,
    fuel: int = 20_000,
    depth: int = 2,
) -> bool:
    """Probe both terms with a family of observing contexts and compare outcomes."""
    for context in probe_contexts(result_type, depth):
        probed_a = _translate_probe(context, term_a, calculus_a)
        probed_b = _translate_probe(context, term_b, calculus_b)
        if not kleene_equivalent(calculus_a, probed_a, calculus_b, probed_b, fuel):
            return False
    return True
