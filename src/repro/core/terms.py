"""The shared term language of λB, λC, and λS.

Figure 1 (λB), Figure 3 (λC) and Figure 5 (λS) share all the standard
λ-calculus constructs (shown in gray in the paper); they differ only in the
node used to mediate between types:

* λB uses casts ``M : A ⇒p B`` — the :class:`Cast` node;
* λC and λS use coercion application ``M⟨c⟩`` — the :class:`Coerce` node,
  whose ``coercion`` field holds a λC coercion (:mod:`repro.lambda_c.coercions`)
  or a λS space-efficient coercion (:mod:`repro.lambda_s.coercions`).

Keeping a single AST lets the translations of Figures 4 and 6 be expressed as
straightforward structural rewrites, and lets substitution, free-variable
computation and pretty-printing be written once.

In addition to the paper's constructs we include the conventional ``if``,
``let``, ``fix`` and pair constructs (documented extension; they contain no
casts and translate homomorphically).
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Callable, Iterator, Sequence

from .labels import Label
from .records import record
from .types import FunType, Type


class Term:
    """Abstract base class for terms."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - convenience
        from .pretty import term_to_str

        return term_to_str(self)


# ---------------------------------------------------------------------------
# Standard constructs (gray in Figure 1)
# ---------------------------------------------------------------------------


@record
class Const(Term):
    """A constant ``k`` of base type ``ι``."""

    value: object
    type: Type


@record
class Op(Term):
    """A primitive operator application ``op(M⃗)``."""

    op: str
    args: tuple[Term, ...]


@record
class Var(Term):
    """A variable ``x``."""

    name: str


@record
class Lam(Term):
    """A λ-abstraction ``λx:A. N``."""

    param: str
    param_type: Type
    body: Term


@record
class App(Term):
    """An application ``L M``."""

    fun: Term
    arg: Term


@record
class Blame(Term):
    """The term ``blame p`` — the observable outcome of a failed cast."""

    label: Label


# ---------------------------------------------------------------------------
# Calculus-specific mediation nodes
# ---------------------------------------------------------------------------


@record
class Cast(Term):
    """A λB cast ``M : A ⇒p B``."""

    subject: Term
    source: Type
    target: Type
    label: Label


@record
class Coerce(Term):
    """A coercion application ``M⟨c⟩`` (λC) or ``M⟨s⟩`` (λS)."""

    subject: Term
    coercion: object


# ---------------------------------------------------------------------------
# Documented standard extensions
# ---------------------------------------------------------------------------


@record
class If(Term):
    """A conditional ``if L then M else N`` with a boolean scrutinee."""

    cond: Term
    then_branch: Term
    else_branch: Term


@record
class Let(Term):
    """A call-by-value let binding ``let x = M in N``."""

    name: str
    bound: Term
    body: Term


@record
class Fix(Term):
    """A call-by-value fixed point.

    ``Fix(fun, fun_type)`` expects ``fun : (A→B) → (A→B)`` and produces a
    recursive function of type ``fun_type = A→B``.  It unrolls lazily:
    ``fix V  →  V (λx:A. (fix V) x)``.
    """

    fun: Term
    fun_type: FunType


@record
class Pair(Term):
    """A pair introduction ``(M, N)``."""

    left: Term
    right: Term


@record
class Fst(Term):
    """First projection."""

    arg: Term


@record
class Snd(Term):
    """Second projection."""

    arg: Term


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------


def children(term: Term) -> tuple[Term, ...]:
    """The immediate subterms of a term, in evaluation order."""
    if isinstance(term, (Const, Var, Blame)):
        return ()
    if isinstance(term, Op):
        return term.args
    if isinstance(term, Lam):
        return (term.body,)
    if isinstance(term, App):
        return (term.fun, term.arg)
    if isinstance(term, Cast):
        return (term.subject,)
    if isinstance(term, Coerce):
        return (term.subject,)
    if isinstance(term, If):
        return (term.cond, term.then_branch, term.else_branch)
    if isinstance(term, Let):
        return (term.bound, term.body)
    if isinstance(term, Fix):
        return (term.fun,)
    if isinstance(term, Pair):
        return (term.left, term.right)
    if isinstance(term, Fst):
        return (term.arg,)
    if isinstance(term, Snd):
        return (term.arg,)
    raise TypeError(f"unknown term node: {term!r}")


def map_children(term: Term, fn: Callable[[Term], Term]) -> Term:
    """Rebuild ``term`` with ``fn`` applied to each immediate subterm."""
    if isinstance(term, (Const, Var, Blame)):
        return term
    if isinstance(term, Op):
        return replace(term, args=tuple(fn(a) for a in term.args))
    if isinstance(term, Lam):
        return replace(term, body=fn(term.body))
    if isinstance(term, App):
        return App(fn(term.fun), fn(term.arg))
    if isinstance(term, Cast):
        return replace(term, subject=fn(term.subject))
    if isinstance(term, Coerce):
        return replace(term, subject=fn(term.subject))
    if isinstance(term, If):
        return If(fn(term.cond), fn(term.then_branch), fn(term.else_branch))
    if isinstance(term, Let):
        return replace(term, bound=fn(term.bound), body=fn(term.body))
    if isinstance(term, Fix):
        return replace(term, fun=fn(term.fun))
    if isinstance(term, Pair):
        return Pair(fn(term.left), fn(term.right))
    if isinstance(term, Fst):
        return Fst(fn(term.arg))
    if isinstance(term, Snd):
        return Snd(fn(term.arg))
    raise TypeError(f"unknown term node: {term!r}")


def subterms(term: Term) -> Iterator[Term]:
    """All subterms of a term, including itself (pre-order)."""
    yield term
    for child in children(term):
        yield from subterms(child)


# ---------------------------------------------------------------------------
# Variables and substitution
# ---------------------------------------------------------------------------

_fresh_counter = itertools.count()


def fresh_name(base: str = "x", avoid: frozenset[str] | set[str] = frozenset()) -> str:
    """Return a variable name not occurring in ``avoid``."""
    root = base.split("%")[0] or "x"
    candidate = root
    while candidate in avoid:
        candidate = f"{root}%{next(_fresh_counter)}"
    return candidate


def free_vars(term: Term) -> frozenset[str]:
    """The free variables of a term."""
    if isinstance(term, Var):
        return frozenset({term.name})
    if isinstance(term, Lam):
        return free_vars(term.body) - {term.param}
    if isinstance(term, Let):
        return free_vars(term.bound) | (free_vars(term.body) - {term.name})
    result: frozenset[str] = frozenset()
    for child in children(term):
        result |= free_vars(child)
    return result


def is_closed(term: Term) -> bool:
    return not free_vars(term)


def subst(term: Term, name: str, value: Term) -> Term:
    """Capture-avoiding substitution ``term[name := value]``."""
    value_fvs = free_vars(value)

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            return value if t.name == name else t
        if isinstance(t, Lam):
            if t.param == name:
                return t
            if t.param in value_fvs and name in free_vars(t.body):
                fresh = fresh_name(t.param, value_fvs | free_vars(t.body))
                renamed = subst(t.body, t.param, Var(fresh))
                return Lam(fresh, t.param_type, go(renamed))
            return Lam(t.param, t.param_type, go(t.body))
        if isinstance(t, Let):
            new_bound = go(t.bound)
            if t.name == name:
                return Let(t.name, new_bound, t.body)
            if t.name in value_fvs and name in free_vars(t.body):
                fresh = fresh_name(t.name, value_fvs | free_vars(t.body))
                renamed = subst(t.body, t.name, Var(fresh))
                return Let(fresh, new_bound, go(renamed))
            return Let(t.name, new_bound, go(t.body))
        return map_children(t, go)

    return go(term)


# ---------------------------------------------------------------------------
# Metrics and structural utilities
# ---------------------------------------------------------------------------


def term_size(term: Term) -> int:
    """Number of AST nodes in a term (coercions/casts count as one node each)."""
    return 1 + sum(term_size(child) for child in children(term))


def count_casts(term: Term) -> int:
    """Number of :class:`Cast` nodes in a term."""
    return sum(1 for t in subterms(term) if isinstance(t, Cast))


def count_coercions(term: Term) -> int:
    """Number of :class:`Coerce` nodes in a term."""
    return sum(1 for t in subterms(term) if isinstance(t, Coerce))


def max_adjacent_coercions(term: Term) -> int:
    """Length of the longest chain of immediately nested coercion applications.

    λS keeps this at 1 for any term in evaluation position; λC lets it grow —
    this metric is the per-term witness of the space-efficiency claim.
    """

    def chain(t: Term) -> int:
        if isinstance(t, Coerce):
            return 1 + chain(t.subject)
        if isinstance(t, Cast):
            return 1 + chain(t.subject)
        return 0

    best = 0
    for t in subterms(term):
        best = max(best, chain(t))
    return best


def erase(term: Term) -> Term:
    """Remove every cast and coercion, yielding the underlying untyped term.

    Used to compare values across calculi (the bisimulations of Propositions
    11 and 16 relate terms that erase to the same underlying term).
    """
    if isinstance(term, Cast):
        return erase(term.subject)
    if isinstance(term, Coerce):
        return erase(term.subject)
    return map_children(term, erase)


def alpha_equal(a: Term, b: Term) -> bool:
    """α-equivalence of terms (coercions and casts compared structurally)."""

    def go(x: Term, y: Term, env_x: dict[str, int], env_y: dict[str, int], depth: int) -> bool:
        if type(x) is not type(y):
            return False
        if isinstance(x, Var):
            bx = env_x.get(x.name)
            by = env_y.get(y.name)
            if bx is None and by is None:
                return x.name == y.name
            return bx == by
        if isinstance(x, Lam):
            if x.param_type != y.param_type:
                return False
            ex = dict(env_x)
            ey = dict(env_y)
            ex[x.param] = depth
            ey[y.param] = depth
            return go(x.body, y.body, ex, ey, depth + 1)
        if isinstance(x, Let):
            if not go(x.bound, y.bound, env_x, env_y, depth):
                return False
            ex = dict(env_x)
            ey = dict(env_y)
            ex[x.name] = depth
            ey[y.name] = depth
            return go(x.body, y.body, ex, ey, depth + 1)
        if isinstance(x, Const):
            return x.value == y.value and x.type == y.type
        if isinstance(x, Op):
            if x.op != y.op or len(x.args) != len(y.args):
                return False
            return all(go(cx, cy, env_x, env_y, depth) for cx, cy in zip(x.args, y.args))
        if isinstance(x, Blame):
            return x.label == y.label
        if isinstance(x, Cast):
            if (x.source, x.target, x.label) != (y.source, y.target, y.label):
                return False
        if isinstance(x, Coerce):
            if x.coercion != y.coercion:
                return False
        if isinstance(x, Fix):
            if x.fun_type != y.fun_type:
                return False
        cx = children(x)
        cy = children(y)
        if len(cx) != len(cy):
            return False
        return all(go(a_, b_, env_x, env_y, depth) for a_, b_ in zip(cx, cy))

    return go(a, b, {}, {}, 0)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def const_int(value: int) -> Const:
    from .types import INT

    return Const(value, INT)


def const_bool(value: bool) -> Const:
    from .types import BOOL

    return Const(value, BOOL)


def const_str(value: str) -> Const:
    from .types import STR

    return Const(value, STR)


def const_unit() -> Const:
    from .types import UNIT

    return Const(None, UNIT)


def apply_many(fun: Term, args: Sequence[Term]) -> Term:
    """Curried application of several arguments."""
    result = fun
    for arg in args:
        result = App(result, arg)
    return result


def lam_many(params: Sequence[tuple[str, Type]], body: Term) -> Term:
    """Curried abstraction over several parameters."""
    result = body
    for name, ty in reversed(list(params)):
        result = Lam(name, ty, result)
    return result
