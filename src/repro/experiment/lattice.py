"""Migration lattices: typed↔untyped splits of a program's bindings.

A *configuration* of a multi-binding ``.grad`` program chooses, for every
top-level definition, whether it keeps its type annotations or drops them to
``?`` — the migration lattice of Takikawa et al., with the fully-untyped
program at the bottom and the fully-typed one at the top.  This module:

* parses a program into its :class:`Binding` structure (annotation, arity,
  which sibling bindings it references);
* renders any configuration back to concrete syntax with **one definition
  per line**, so a blame label ``role@line:col`` maps straight back to the
  binding that owns the line (the ``line_owner`` table) — the key the
  blame-following driver navigates by.  Each binding's typed and untyped
  lines are rendered once per lattice; a configuration only picks one of
  the two per binding and joins them;
* enumerates the full lattice when it is small and falls back to seeded
  stratified sampling (uniform over lattice *levels*, then uniform within a
  level) when ``2^n`` exceeds the cutoff.

Untyping a binding is *interface* untyping: parameter and return/value
annotations become ``?``; ascriptions inside the body are part of the code
and survive (the fault injector relies on that).  An untyped function keeps
a ``? → … → ?`` function-type annotation of its arity rather than a bare
``?`` so recursive definitions still elaborate through the letrec path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations
from math import comb

from ..core.types import DYN, BaseType, DynType, FunType, ProdType, Type
from ..surface.ast import (
    Definition,
    Program,
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
from ..surface.parser import parse_program

#: The line-owner name for the program's main expression.
MAIN_OWNER = "<main>"


# ---------------------------------------------------------------------------
# Rendering surface syntax back to source
# ---------------------------------------------------------------------------


def render_type(ty: Type) -> str:
    """Concrete syntax for a type (re-parseable by :func:`parse_type`)."""
    if isinstance(ty, DynType):
        return "?"
    if isinstance(ty, BaseType):
        return ty.name
    if isinstance(ty, FunType):
        parts = []
        current: Type = ty
        while isinstance(current, FunType):
            parts.append(render_type(current.dom))
            current = current.cod
        parts.append(render_type(current))
        return f"(-> {' '.join(parts)})"
    if isinstance(ty, ProdType):
        return f"(* {render_type(ty.left)} {render_type(ty.right)})"
    raise TypeError(f"unrenderable type: {ty!r}")


def _render_const(value: object) -> str:
    if value is None:
        return "unit"
    if value is True:
        return "#t"
    if value is False:
        return "#f"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"unrenderable constant: {value!r}")


def _render_param(name: str, ty: Type) -> str:
    if isinstance(ty, DynType):
        return name
    return f"[{name} : {render_type(ty)}]"


def render_expr(expr: SurfaceExpr) -> str:
    """Concrete syntax for a surface expression, on one line."""
    if isinstance(expr, SConst):
        return _render_const(expr.value)
    if isinstance(expr, SVar):
        return expr.name
    if isinstance(expr, SLam):
        params = " ".join(_render_param(n, t) for n, t in expr.params)
        return f"(lambda ({params}) {render_expr(expr.body)})"
    if isinstance(expr, SApp):
        parts = [render_expr(expr.fun)] + [render_expr(a) for a in expr.args]
        return f"({' '.join(parts)})"
    if isinstance(expr, SOp):
        parts = [expr.op] + [render_expr(a) for a in expr.args]
        return f"({' '.join(parts)})"
    if isinstance(expr, SIf):
        return (f"(if {render_expr(expr.cond)} {render_expr(expr.then_branch)} "
                f"{render_expr(expr.else_branch)})")
    if isinstance(expr, SLet):
        bindings = " ".join(f"[{n} {render_expr(e)}]" for n, e in expr.bindings)
        return f"(let ({bindings}) {render_expr(expr.body)})"
    if isinstance(expr, SLetRec):
        binding = (f"[{expr.name} : {render_type(expr.annotation)} "
                   f"{render_expr(expr.bound)}]")
        return f"(letrec ({binding}) {render_expr(expr.body)})"
    if isinstance(expr, SPair):
        return f"(pair {render_expr(expr.left)} {render_expr(expr.right)})"
    if isinstance(expr, SFst):
        return f"(fst {render_expr(expr.arg)})"
    if isinstance(expr, SSnd):
        return f"(snd {render_expr(expr.arg)})"
    if isinstance(expr, SAscribe):
        return f"(: {render_expr(expr.expr)} {render_type(expr.annotation)})"
    raise TypeError(f"unrenderable expression: {expr!r}")


# ---------------------------------------------------------------------------
# The lattice structure
# ---------------------------------------------------------------------------


def _strip_lambda(expr: SurfaceExpr) -> SurfaceExpr:
    """The lambda with every parameter annotation dropped to ``?``."""
    assert isinstance(expr, SLam)
    params = tuple((name, DYN) for name, _ in expr.params)
    return SLam(params, expr.body, expr.location)


def _dyn_fun_type(arity: int) -> Type:
    ty: Type = DYN
    for _ in range(arity):
        ty = FunType(DYN, ty)
    return ty


def _has_annotations(definition: Definition) -> bool:
    """Does the binding carry any interface annotation an untyping removes?"""
    annotation = definition.annotation
    if annotation is not None and not isinstance(annotation, DynType):
        if isinstance(definition.body, SLam):
            # A ?→…→? annotation of matching arity carries no information.
            if annotation != _dyn_fun_type(len(definition.body.params)):
                return True
        else:
            return True
    if isinstance(definition.body, SLam):
        return any(not isinstance(t, DynType) for _, t in definition.body.params)
    return False


def _references(expr: SurfaceExpr, names: frozenset[str]) -> set[str]:
    """Free occurrences of sibling binding names in ``expr`` (shadowing by
    local binders is ignored — an over-approximation is fine for the
    navigation graph)."""
    found: set[str] = set()

    def walk(node: SurfaceExpr) -> None:
        if isinstance(node, SVar):
            if node.name in names:
                found.add(node.name)
        elif isinstance(node, SLam):
            walk(node.body)
        elif isinstance(node, SApp):
            walk(node.fun)
            for arg in node.args:
                walk(arg)
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
    return found


@dataclass(frozen=True)
class Binding:
    """One top-level definition as the lattice sees it."""

    name: str
    annotation: Type | None
    body: SurfaceExpr
    typeable: bool            # does untyping it change anything?
    references: tuple[str, ...]  # sibling bindings its body mentions

    @property
    def arity(self) -> int:
        return len(self.body.params) if isinstance(self.body, SLam) else 0


@dataclass(frozen=True)
class ProgramLattice:
    """A program decomposed into bindings plus its main expression."""

    name: str
    bindings: tuple[Binding, ...]
    main: SurfaceExpr

    @classmethod
    def from_program(cls, program: Program, name: str = "<program>") -> "ProgramLattice":
        if program.main is None:
            raise ValueError(f"{name}: a lattice needs a main expression")
        names = frozenset(d.name for d in program.definitions)
        bindings = tuple(
            Binding(
                name=d.name,
                annotation=d.annotation,
                body=d.body,
                typeable=_has_annotations(d),
                references=tuple(sorted(_references(d.body, names) - {d.name})),
            )
            for d in program.definitions
        )
        return cls(name=name, bindings=bindings, main=program.main)

    @classmethod
    def from_source(cls, source: str, name: str = "<program>") -> "ProgramLattice":
        return cls.from_program(parse_program(source), name)

    @property
    def typeable_names(self) -> tuple[str, ...]:
        """The bindings the lattice toggles, in definition order."""
        return tuple(b.name for b in self.bindings if b.typeable)

    def binding(self, name: str) -> Binding:
        for b in self.bindings:
            if b.name == name:
                return b
        raise KeyError(name)

    def with_binding(self, binding: Binding) -> "ProgramLattice":
        """A lattice with one binding replaced (the fault injector's hook)."""
        bindings = tuple(binding if b.name == binding.name else b
                         for b in self.bindings)
        return replace(self, bindings=bindings)

    def reference_map(self) -> dict[str, tuple[str, ...]]:
        refs = {b.name: b.references for b in self.bindings}
        names = frozenset(b.name for b in self.bindings)
        refs[MAIN_OWNER] = tuple(sorted(_references(self.main, names)))
        return refs

    @cached_property
    def reference_graph(self) -> dict[str, set[str]]:
        """The undirected reference graph (including the main expression),
        built on first use and shared by every trail of the program
        (callers must not mutate it)."""
        graph: dict[str, set[str]] = {}
        for source, targets in self.reference_map().items():
            graph.setdefault(source, set())
            for target in targets:
                graph[source].add(target)
                graph.setdefault(target, set()).add(source)
        return graph

    @cached_property
    def rendered_lines(self) -> tuple[tuple[str, str, str], ...]:
        """``(owner, typed line, untyped line)`` per source line: one per
        binding, then the main expression (the same line both ways).
        Rendered on first use and kept as long as the lattice."""
        lines = tuple((b.name, _render_binding(b, typed=True), _render_binding(b, typed=False))
                      for b in self.bindings)
        main = render_expr(self.main)
        return (*lines, (MAIN_OWNER, main, main))

    @cached_property
    def line_owner(self) -> dict[int, str]:
        """The line-owner table, the same for every configuration (shared:
        callers must not mutate it)."""
        return {line: owner for line, (owner, _, _) in enumerate(self.rendered_lines, 1)}


def _render_binding(binding: Binding, typed: bool) -> str:
    """One definition on one line, typed or interface-untyped."""
    if typed:
        if binding.annotation is None:
            return f"(define {binding.name} {render_expr(binding.body)})"
        return (f"(define {binding.name} : {render_type(binding.annotation)} "
                f"{render_expr(binding.body)})")
    if isinstance(binding.body, SLam):
        # Keep a ?→…→? function annotation so recursion still elaborates
        # through the letrec path.
        annotation = _dyn_fun_type(binding.arity)
        return (f"(define {binding.name} : {render_type(annotation)} "
                f"{render_expr(_strip_lambda(binding.body))})")
    return f"(define {binding.name} {render_expr(binding.body)})"


def render_configuration(
    lattice: ProgramLattice, untyped: frozenset[str] | set[str]
) -> tuple[str, dict[int, str]]:
    """Render one lattice configuration: the source text plus the line-owner
    table mapping each source line to the binding defined there (the main
    expression owns the final line as :data:`MAIN_OWNER`).  The lines come
    from :attr:`ProgramLattice.rendered_lines` and the table is
    :attr:`ProgramLattice.line_owner`, shared by every configuration."""
    text = "\n".join([untyped_line if owner in untyped else typed_line
                      for owner, typed_line, untyped_line in lattice.rendered_lines])
    return text + "\n", lattice.line_owner


# ---------------------------------------------------------------------------
# Enumeration and sampling
# ---------------------------------------------------------------------------


def enumerate_configurations(
    lattice: ProgramLattice,
    max_configs: int | None = None,
    seed: int = 0,
) -> list[frozenset[str]]:
    """The configurations to visit, as sets of *untyped* binding names.

    Below the cutoff (``2^n ≤ max_configs``, or always when ``max_configs``
    is ``None``) this is the **full lattice** in mask order (bit *i* of the
    mask untypes the *i*-th typeable binding).  Above it, a seeded
    stratified sample: the quota is split evenly across lattice levels
    (numbers of untyped bindings), each level's configurations drawn
    uniformly without replacement, so both the nearly-typed top and the
    nearly-untyped bottom of the lattice stay represented no matter how
    large ``n`` grows.  Deterministic for a given ``(lattice, max_configs,
    seed)``.
    """
    names = lattice.typeable_names
    n = len(names)
    if max_configs is None or (n < 63 and 2**n <= max_configs):
        return [
            frozenset(name for i, name in enumerate(names) if mask >> i & 1)
            for mask in range(2**n)
        ]
    if max_configs <= 0:
        return []
    rng = random.Random(seed)
    sizes = {level: comb(n, level) for level in range(n + 1)}
    quota, extra = divmod(max_configs, n + 1)
    want = {
        level: min(quota + (1 if level < extra else 0), sizes[level])
        for level in range(n + 1)
    }
    # Redistribute quota the tiny extreme levels could not absorb, so the
    # sample size actually reaches max_configs whenever the lattice can.
    leftover = max_configs - sum(want.values())
    while leftover > 0:
        open_levels = [lv for lv in range(n + 1) if want[lv] < sizes[lv]]
        if not open_levels:
            break
        for level in open_levels:
            if leftover == 0:
                break
            want[level] += 1
            leftover -= 1
    picked: list[frozenset[str]] = []
    for level in range(n + 1):
        if want[level] == 0:
            continue
        if sizes[level] <= want[level]:
            picked.extend(frozenset(c) for c in combinations(names, level))
            continue
        chosen: set[frozenset[str]] = set()
        while len(chosen) < want[level]:
            chosen.add(frozenset(rng.sample(names, level)))
        picked.extend(sorted(chosen, key=lambda c: tuple(sorted(c))))
    return picked
