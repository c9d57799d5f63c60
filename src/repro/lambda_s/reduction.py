"""Small-step reduction for the space-efficient calculus λS (Figure 5).

The rules::

    E[(U⟨s → t⟩) V]    →  E[(U (V⟨s⟩))⟨t⟩]
    F[U⟨idι⟩]          →  F[U]
    F[U⟨id?⟩]          →  F[U]
    F[M⟨s⟩⟨t⟩]         →  F[M⟨s # t⟩]
    F[U⟨⊥GpH⟩]         →  blame p
    E[blame p]         →  blame p              (E ≠ □)

plus the standard rules and the product extension.  The essential discipline
of the evaluation contexts ``E ::= F | F[□⟨f⟩]`` is that the hole is never
under *two* coercion applications: whenever two coercions become adjacent in
evaluation position they are merged with ``#`` **before** anything else
happens in that position.  That is what keeps the pending-coercion space of a
program bounded by its static coercion height (Proposition 14 plus the
size-from-height bound).

Deviation (documented in DESIGN.md): the published grammar restricts the
coercion above the hole to be identity-free (``f``), which read literally
leaves well-typed terms such as ``((λx.x) 1)⟨idι⟩`` stuck.  We allow
evaluation under a single coercion of any shape; merging still takes priority
because the hole is never placed under two coercions.
"""

from __future__ import annotations

from typing import Iterator

from ..core.errors import EvaluationError, StuckError
from ..core.labels import Label
from ..core.ops import op_spec
from ..core.terms import (
    App,
    Blame,
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
    free_vars,
    fresh_name,
    subst,
)
from ..lambda_b.reduction import DEFAULT_FUEL, Outcome
from .coercions import (
    FailS,
    FunCo,
    IdBase,
    IdDyn,
    ProdCo,
    Projection,
    compose,
)
from .syntax import is_value


# ---------------------------------------------------------------------------
# Evaluation contexts
# ---------------------------------------------------------------------------


def _active_child(term: Term) -> Term | None:
    """The eval-position child of ``term`` that is not yet a value (if any).

    For a coercion application the subject is only an eval position when it is
    not itself a coercion application — adjacent coercions must merge first.
    """
    if isinstance(term, Op):
        for arg in term.args:
            if not is_value(arg):
                return arg
        return None
    if isinstance(term, App):
        if not is_value(term.fun):
            return term.fun
        if not is_value(term.arg):
            return term.arg
        return None
    if isinstance(term, Coerce):
        if isinstance(term.subject, Coerce):
            return None  # merge first: the hole may not sit under two coercions
        return None if is_value(term.subject) else term.subject
    if isinstance(term, If):
        return None if is_value(term.cond) else term.cond
    if isinstance(term, Let):
        return None if is_value(term.bound) else term.bound
    if isinstance(term, Fix):
        return None if is_value(term.fun) else term.fun
    if isinstance(term, Pair):
        if not is_value(term.left):
            return term.left
        if not is_value(term.right):
            return term.right
        return None
    if isinstance(term, (Fst, Snd)):
        return None if is_value(term.arg) else term.arg
    return None


def blame_in_evaluation_position(term: Term) -> Label | None:
    """If ``term`` decomposes as ``E[blame p]`` with ``E ≠ □``, return ``p``."""
    current = term
    while True:
        child = _active_child(current)
        if child is None:
            # A coercion applied directly to blame also propagates it.
            if isinstance(current, Coerce) and isinstance(current.subject, Blame):
                return current.subject.label
            return None
        if isinstance(child, Blame):
            return child.label
        current = child


# ---------------------------------------------------------------------------
# Top-level reduction rules
# ---------------------------------------------------------------------------


def _reduce_coerce(term: Coerce) -> Term:
    """Reduce a coercion application that is not a value and whose subject
    is either another coercion application (merge) or an uncoerced value."""
    subject, coercion = term.subject, term.coercion

    # F[M⟨s⟩⟨t⟩] → F[M⟨s # t⟩] — merging takes priority over everything else.
    if isinstance(subject, Coerce):
        return Coerce(subject.subject, compose(subject.coercion, coercion))

    if isinstance(coercion, (IdBase, IdDyn)):
        return subject

    if isinstance(coercion, FailS):
        return Blame(coercion.label)

    if isinstance(coercion, Projection):
        raise StuckError(f"projection applied to an uncoerced value: {term}")

    # FunCo / ProdCo / Injection over an uncoerced value are values.
    raise StuckError(f"no coercion rule applies to {term}")


def _reduce_redex(term: Term) -> Term:
    if isinstance(term, Op):
        spec = op_spec(term.op)
        operands = []
        for arg in term.args:
            if not isinstance(arg, Const):
                raise StuckError(f"operator {term.op!r} applied to a non-constant: {arg}")
            operands.append(arg.value)
        return Const(spec.apply(operands), spec.result_type)

    if isinstance(term, App):
        fun, arg = term.fun, term.arg
        if isinstance(fun, Lam):
            return subst(fun.body, fun.param, arg)
        if isinstance(fun, Coerce) and isinstance(fun.coercion, FunCo):
            coercion = fun.coercion
            return Coerce(App(fun.subject, Coerce(arg, coercion.dom)), coercion.cod)
        raise StuckError(f"application of a non-function value: {term}")

    if isinstance(term, Coerce):
        return _reduce_coerce(term)

    if isinstance(term, If):
        if isinstance(term.cond, Const) and isinstance(term.cond.value, bool):
            return term.then_branch if term.cond.value else term.else_branch
        raise StuckError(f"if-condition is not a boolean constant: {term.cond}")

    if isinstance(term, Let):
        return subst(term.body, term.name, term.bound)

    if isinstance(term, Fix):
        fun_type = term.fun_type
        param = fresh_name("x", free_vars(term.fun))
        unrolled = Lam(param, fun_type.dom, App(Fix(term.fun, fun_type), Var(param)))
        return App(term.fun, unrolled)

    if isinstance(term, Fst):
        target = term.arg
        if isinstance(target, Pair):
            return target.left
        if isinstance(target, Coerce) and isinstance(target.coercion, ProdCo):
            return Coerce(Fst(target.subject), target.coercion.left)
        raise StuckError(f"fst of a non-pair value: {term}")

    if isinstance(term, Snd):
        target = term.arg
        if isinstance(target, Pair):
            return target.right
        if isinstance(target, Coerce) and isinstance(target.coercion, ProdCo):
            return Coerce(Snd(target.subject), target.coercion.right)
        raise StuckError(f"snd of a non-pair value: {term}")

    if isinstance(term, Var):
        raise StuckError(f"free variable during evaluation: {term.name}")

    raise StuckError(f"no reduction rule applies to {term}")


def _step_inner(term: Term) -> Term:
    if isinstance(term, Op):
        for index, arg in enumerate(term.args):
            if not is_value(arg):
                new_args = list(term.args)
                new_args[index] = _step_inner(arg)
                return Op(term.op, tuple(new_args))
        return _reduce_redex(term)
    if isinstance(term, App):
        if not is_value(term.fun):
            return App(_step_inner(term.fun), term.arg)
        if not is_value(term.arg):
            return App(term.fun, _step_inner(term.arg))
        return _reduce_redex(term)
    if isinstance(term, Coerce):
        # Merging adjacent coercions takes priority over descending into the subject.
        if isinstance(term.subject, Coerce):
            return _reduce_redex(term)
        if not is_value(term.subject):
            return Coerce(_step_inner(term.subject), term.coercion)
        return _reduce_redex(term)
    if isinstance(term, If):
        if not is_value(term.cond):
            return If(_step_inner(term.cond), term.then_branch, term.else_branch)
        return _reduce_redex(term)
    if isinstance(term, Let):
        if not is_value(term.bound):
            return Let(term.name, _step_inner(term.bound), term.body)
        return _reduce_redex(term)
    if isinstance(term, Fix):
        if not is_value(term.fun):
            return Fix(_step_inner(term.fun), term.fun_type)
        return _reduce_redex(term)
    if isinstance(term, Pair):
        if not is_value(term.left):
            return Pair(_step_inner(term.left), term.right)
        if not is_value(term.right):
            return Pair(term.left, _step_inner(term.right))
        raise StuckError("a pair of values is a value; no step")
    if isinstance(term, Fst):
        if not is_value(term.arg):
            return Fst(_step_inner(term.arg))
        return _reduce_redex(term)
    if isinstance(term, Snd):
        if not is_value(term.arg):
            return Snd(_step_inner(term.arg))
        return _reduce_redex(term)
    return _reduce_redex(term)


def step(term: Term) -> Term | None:
    """Perform one λS reduction step (``None`` when ``term`` is a value or blame)."""
    if is_value(term) or isinstance(term, Blame):
        return None
    label = blame_in_evaluation_position(term)
    if label is not None:
        return Blame(label)
    return _step_inner(term)


# ---------------------------------------------------------------------------
# Multi-step evaluation, with optional space accounting
# ---------------------------------------------------------------------------


def trace(term: Term, fuel: int = DEFAULT_FUEL) -> Iterator[Term]:
    current = term
    yield current
    for _ in range(fuel):
        nxt = step(current)
        if nxt is None:
            return
        current = nxt
        yield current


def run(term: Term, fuel: int = DEFAULT_FUEL) -> Outcome:
    """Evaluate a λS term for at most ``fuel`` steps and report the outcome."""
    current = term
    for steps in range(fuel + 1):
        if isinstance(current, Blame):
            return Outcome("blame", label=current.label, steps=steps)
        if is_value(current):
            return Outcome("value", term=current, steps=steps)
        nxt = step(current)
        if nxt is None:  # pragma: no cover - unreachable for well-typed terms
            raise EvaluationError(f"term neither value nor blame yet has no step: {current}")
        current = nxt
    return Outcome("timeout", term=current, steps=fuel)
