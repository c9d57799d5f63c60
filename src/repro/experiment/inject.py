"""Fault injection: one type-level mistake with a known ground truth.

A *fault* edits exactly one binding's body so that some value crosses a
type boundary at the wrong type, while the program stays **statically
well-typed in every lattice configuration** — the mistake is routed
through ``?`` ascriptions, exactly the kind of inconsistency a gradual
type system is allowed to defer to runtime.  Three kinds:

``wrong-return``
    The culprit function's body is replaced by a constant of the wrong
    base type, injected to ``?`` (``(: wrong ?)``).  The fault manifests
    wherever the return value is consumed at its declared type.

``wrong-argument``
    One call from the culprit to a sibling passes a wrong-base-type
    constant through ``?`` in place of an argument.  The caller is the
    culprit: it broke the callee's interface.

``wrong-annotation``
    The culprit function's body result is re-ascribed at a wrong base
    type via the triple ``(: (: (: body ?) B') ?)`` — an interior claim
    that the result has type ``B'``.  The cast ``B ⇒ ? ⇒ B'`` fails *at
    the culprit's own line* in every configuration that exercises it.

The wrong constants are fixed (``int``→``#t``, ``bool``→``7``,
``str``→``7``) so fault application is deterministic; :func:`sample_faults`
draws a seeded, kind-balanced subset when a program admits many faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property

from ..core.types import BOOL, DYN, INT, BaseType, FunType, Type
from ..surface.ast import (
    SApp,
    SAscribe,
    SConst,
    SFst,
    SIf,
    SLam,
    SLet,
    SLetRec,
    SOp,
    SPair,
    SSnd,
    SurfaceExpr,
    SVar,
)
from .lattice import ProgramLattice, render_type

#: A deterministically wrong constant for each base type.
WRONG_VALUE: dict[str, object] = {"int": True, "bool": 7, "str": 7}

#: A deterministically wrong base type for each base type.
WRONG_TYPE: dict[str, Type] = {"int": BOOL, "bool": INT, "str": INT}

FAULT_KINDS = ("wrong-return", "wrong-argument", "wrong-annotation")


@dataclass(frozen=True)
class Fault:
    """One planted mistake with its ground-truth culprit."""

    kind: str
    culprit: str  # binding name whose code is wrong
    site: str  # human-readable location of the edit
    description: str
    value: object = None  # wrong constant (wrong-return / wrong-argument)
    wrong_type: Type | None = None  # claimed type (wrong-annotation)
    call_index: int = 0  # which matching call site (wrong-argument)
    arg_index: int = 0  # which argument of that call (wrong-argument)

    def describe(self) -> dict:
        """The fault as a JSON-ready dict, built once: every trail of this
        fault holds the same dict, so callers must not mutate it (nor a
        trail record's ``untyped`` lists, which are shared the same way;
        see :meth:`~repro.experiment.driver.Trail.describe`)."""
        return self._description

    @cached_property
    def _description(self) -> dict:
        return {"kind": self.kind, "culprit": self.culprit, "site": self.site,
                "description": self.description}


def _return_type(annotation: Type | None) -> Type | None:
    ty = annotation
    while isinstance(ty, FunType):
        ty = ty.cod
    return ty


def _param_types(annotation: Type | None) -> list[Type]:
    params: list[Type] = []
    ty = annotation
    while isinstance(ty, FunType):
        params.append(ty.dom)
        ty = ty.cod
    return params


def _wrong_const(base: BaseType) -> SurfaceExpr:
    """The wrong-typed constant, injected through ``?`` so every lattice
    configuration stays statically well-typed."""
    return SAscribe(SConst(WRONG_VALUE[base.name]), DYN)


def _call_sites(
    expr: SurfaceExpr, callees: frozenset[str]
) -> list[tuple[str, int]]:
    """``(callee, arity)`` for each direct call to a sibling, in a fixed
    left-to-right walk order — index *i* here is ``Fault.call_index`` *i*."""
    sites: list[tuple[str, int]] = []

    def walk(node: SurfaceExpr) -> None:
        if isinstance(node, SApp):
            if isinstance(node.fun, SVar) and node.fun.name in callees:
                sites.append((node.fun.name, len(node.args)))
            walk(node.fun)
            for arg in node.args:
                walk(arg)
        elif isinstance(node, SLam):
            walk(node.body)
        elif isinstance(node, SOp):
            for arg in node.args:
                walk(arg)
        elif isinstance(node, SIf):
            walk(node.cond)
            walk(node.then_branch)
            walk(node.else_branch)
        elif isinstance(node, SLet):
            for _, bound in node.bindings:
                walk(bound)
            walk(node.body)
        elif isinstance(node, SLetRec):
            walk(node.bound)
            walk(node.body)
        elif isinstance(node, SPair):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (SFst, SSnd)):
            walk(node.arg)
        elif isinstance(node, SAscribe):
            walk(node.expr)

    walk(expr)
    return sites


def _replace_call_arg(
    expr: SurfaceExpr,
    callees: frozenset[str],
    call_index: int,
    arg_index: int,
    new_arg: SurfaceExpr,
) -> SurfaceExpr:
    """The body with one argument of the ``call_index``-th sibling call
    replaced (same walk order as :func:`_call_sites`)."""
    counter = [0]

    def walk(node: SurfaceExpr) -> SurfaceExpr:
        if isinstance(node, SApp):
            args = node.args
            if isinstance(node.fun, SVar) and node.fun.name in callees:
                here = counter[0]
                counter[0] += 1
                if here == call_index:
                    args = tuple(
                        new_arg if i == arg_index else a
                        for i, a in enumerate(args)
                    )
                    return SApp(node.fun, tuple(walk(a) if i != arg_index else a
                                                for i, a in enumerate(args)),
                                node.location)
            return SApp(walk(node.fun), tuple(walk(a) for a in args),
                        node.location)
        if isinstance(node, SLam):
            return SLam(node.params, walk(node.body), node.location)
        if isinstance(node, SOp):
            return SOp(node.op, tuple(walk(a) for a in node.args), node.location)
        if isinstance(node, SIf):
            return SIf(walk(node.cond), walk(node.then_branch),
                       walk(node.else_branch), node.location)
        if isinstance(node, SLet):
            bindings = tuple((n, walk(e)) for n, e in node.bindings)
            return SLet(bindings, walk(node.body), node.location)
        if isinstance(node, SLetRec):
            return SLetRec(node.name, node.annotation, walk(node.bound),
                           walk(node.body), node.location)
        if isinstance(node, SPair):
            return SPair(walk(node.left), walk(node.right), node.location)
        if isinstance(node, SFst):
            return SFst(walk(node.arg), node.location)
        if isinstance(node, SSnd):
            return SSnd(walk(node.arg), node.location)
        if isinstance(node, SAscribe):
            return SAscribe(walk(node.expr), node.annotation, node.location)
        return node

    return walk(expr)


def enumerate_faults(lattice: ProgramLattice) -> list[Fault]:
    """Every fault the program admits, in a deterministic order.

    Only definitions can be culprits (the main expression is never typed
    or untyped, so it cannot anchor a migration trail).
    """
    names = frozenset(b.name for b in lattice.bindings)
    faults: list[Fault] = []
    for binding in lattice.bindings:
        ret = _return_type(binding.annotation)
        if isinstance(binding.body, SLam) and isinstance(ret, BaseType):
            faults.append(Fault(
                kind="wrong-return",
                culprit=binding.name,
                site=f"return of {binding.name}",
                description=(f"{binding.name} returns "
                             f"{WRONG_VALUE[ret.name]!r} instead of a value "
                             f"of type {render_type(ret)}"),
                value=WRONG_VALUE[ret.name],
            ))
            faults.append(Fault(
                kind="wrong-annotation",
                culprit=binding.name,
                site=f"result annotation of {binding.name}",
                description=(f"{binding.name} claims its result has type "
                             f"{render_type(WRONG_TYPE[ret.name])} instead "
                             f"of {render_type(ret)}"),
                wrong_type=WRONG_TYPE[ret.name],
            ))
        body = binding.body.body if isinstance(binding.body, SLam) else binding.body
        for call_index, (callee, arity) in enumerate(
            _call_sites(body, names - {binding.name})
        ):
            params = _param_types(lattice.binding(callee).annotation)
            for arg_index in range(min(arity, len(params))):
                param = params[arg_index]
                if isinstance(param, BaseType):
                    faults.append(Fault(
                        kind="wrong-argument",
                        culprit=binding.name,
                        site=(f"argument {arg_index + 1} of call "
                              f"#{call_index + 1} to {callee} "
                              f"in {binding.name}"),
                        description=(f"{binding.name} passes "
                                     f"{WRONG_VALUE[param.name]!r} to "
                                     f"{callee} where a "
                                     f"{render_type(param)} is expected"),
                        value=WRONG_VALUE[param.name],
                        call_index=call_index,
                        arg_index=arg_index,
                    ))
    return faults


def sample_faults(
    lattice: ProgramLattice, count: int, seed: int = 0
) -> list[Fault]:
    """A seeded, kind-balanced sample of at most ``count`` faults.

    Round-robin across fault kinds (each kind's pool shuffled by the seed)
    so a program rich in call sites does not drown out annotation faults.
    Deterministic for a given ``(lattice, count, seed)``.
    """
    if count <= 0:
        return []
    rng = random.Random(seed)
    pools: dict[str, list[Fault]] = {kind: [] for kind in FAULT_KINDS}
    for fault in enumerate_faults(lattice):
        pools[fault.kind].append(fault)
    for pool in pools.values():
        rng.shuffle(pool)
    picked: list[Fault] = []
    while len(picked) < count and any(pools.values()):
        for kind in FAULT_KINDS:
            if pools[kind] and len(picked) < count:
                picked.append(pools[kind].pop())
    return picked


def apply_fault(lattice: ProgramLattice, fault: Fault) -> ProgramLattice:
    """The lattice with the fault's edit planted in its culprit binding."""
    binding = lattice.binding(fault.culprit)
    if fault.kind == "wrong-return":
        assert isinstance(binding.body, SLam)
        ret = _return_type(binding.annotation)
        new_body: SurfaceExpr = SLam(
            binding.body.params, _wrong_const(ret), binding.body.location
        )
    elif fault.kind == "wrong-annotation":
        assert isinstance(binding.body, SLam)
        wrong = SAscribe(
            SAscribe(SAscribe(binding.body.body, DYN), fault.wrong_type), DYN
        )
        new_body = SLam(binding.body.params, wrong, binding.body.location)
    elif fault.kind == "wrong-argument":
        names = frozenset(b.name for b in lattice.bindings)
        callees = names - {binding.name}
        callee = _call_sites(
            binding.body.body if isinstance(binding.body, SLam) else binding.body,
            callees,
        )[fault.call_index][0]
        param = _param_types(lattice.binding(callee).annotation)[fault.arg_index]
        if isinstance(binding.body, SLam):
            inner = _replace_call_arg(
                binding.body.body, callees, fault.call_index, fault.arg_index,
                _wrong_const(param),
            )
            new_body = SLam(binding.body.params, inner, binding.body.location)
        else:
            new_body = _replace_call_arg(
                binding.body, callees, fault.call_index, fault.arg_index,
                _wrong_const(param),
            )
    else:
        raise ValueError(f"unknown fault kind {fault.kind!r}")
    return lattice.with_binding(replace(binding, body=new_body))
