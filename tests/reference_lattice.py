"""Configuration rendering as it was when every configuration walked every
binding's AST again.  Kept as the oracle for ``render_configuration``,
which renders each binding's typed and untyped lines once per lattice
(``test_experiment.py::TestRendering``); it must not be used by the package.

``render_binding`` and ``render_configuration`` are the old
``_render_binding`` and ``render_configuration``, verbatim.
"""

from __future__ import annotations

from repro.experiment.lattice import (
    MAIN_OWNER,
    Binding,
    ProgramLattice,
    _dyn_fun_type,
    _strip_lambda,
    render_expr,
    render_type,
)
from repro.surface.ast import SLam


def render_binding(binding: Binding, typed: bool) -> str:
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
    expression owns the final line as :data:`MAIN_OWNER`)."""
    lines: list[str] = []
    owner: dict[int, str] = {}
    for binding in lattice.bindings:
        lines.append(render_binding(binding, typed=binding.name not in untyped))
        owner[len(lines)] = binding.name
    lines.append(render_expr(lattice.main))
    owner[len(lines)] = MAIN_OWNER
    return "\n".join(lines) + "\n", owner
