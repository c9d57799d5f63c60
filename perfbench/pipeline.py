"""The compile pipeline called layer by layer, for the traced passes.

:func:`compile_layers` runs exactly the stages ``repro.api.run`` runs for a
cold source — parse (which lexes), elaborate, ``b_to_c``, ``c_to_s``,
lower, optimize — each inside its own span, and returns the per-op counts
the layer metrics need.  Arguments whose keyword names are due to change
(the lowering semantics) are passed by position.
"""

from __future__ import annotations

from common import Tracer, count_into, instrumented


def lexing_instrumented(tracer: Tracer):
    """Record lexing as the ``lex`` child of the ``parse`` span."""
    from repro.surface import parser

    return instrumented(tracer, [(parser, "tokenize", "lex", count_into("tokens", len))])


def count_casts(term) -> int:
    """Casts in an elaborated λB term."""
    from dataclasses import fields

    from repro.core.terms import Cast, Term

    casts = 0
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Cast):
            casts += 1
        for field in fields(node):
            child = getattr(node, field.name)
            if isinstance(child, Term):
                stack.append(child)
            elif isinstance(child, tuple):
                stack.extend(item for item in child if isinstance(item, Term))
    return casts


def instruction_count(code) -> int:
    from repro.compiler.bytecode import all_code_objects

    return sum(len(obj.instructions) for obj in all_code_objects(code))


def compile_layers(tracer: Tracer, source: str, config) -> tuple:
    """Front end, translations, lowering and optimization, one span each.

    Returns ``(code, static type, elaborated term, counts)``; ``config`` is a
    resolved :class:`repro.api.RunConfig`.
    """
    from repro.compiler.lower import lower_program
    from repro.compiler.opt import optimize
    from repro.surface.cast_insertion import elaborate_program
    from repro.surface.parser import parse_program
    from repro.translate import b_to_c, c_to_s

    with tracer.span("parse"):
        program = parse_program(source)
    with tracer.span("elaborate"):
        term, static_type = elaborate_program(program)
    with tracer.span("translate_bc"):
        term_c = b_to_c(term)
    with tracer.span("translate_cs"):
        term_s = c_to_s(term_c)
    with tracer.span("lower"):
        code = lower_program(term_s, "<main>", config.semantics)
    lowered = instruction_count(code)
    with tracer.span("optimize"):
        code = optimize(code, config.opt_level)
    counts = {"lower.insns": lowered, "optimize.insns": instruction_count(code)}
    return code, static_type, term, counts


def register_layers(tracer: Tracer, code) -> tuple:
    """Register allocation in its own span; returns ``(rcode, words)``."""
    from repro.compiler.regalloc import all_rcodes, compile_registers

    with tracer.span("regalloc"):
        rcode = compile_registers(code)
    return rcode, sum(len(obj.words) for obj in all_rcodes(rcode))


def run_stats(outcome) -> dict:
    """The engine counters the ``run.*`` layer metrics are made of."""
    stats = outcome.stats or {}
    return {
        "steps": stats.get("steps", 0),
        "merges": stats.get("merges", 0),
        "cache_hits": stats.get("cache_hits", 0),
        "cache_misses": stats.get("cache_misses", 0),
        "max_pending_mediators": stats.get("max_pending_mediators", 0),
    }


class RunLayer:
    """Accumulates the per-semantics ``run.*`` metrics over traced ops."""

    def __init__(self) -> None:
        self.ops: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.totals: dict[str, dict] = {}

    def add(self, semantics: str, self_s: float, stats: dict) -> None:
        self.ops[semantics] = self.ops.get(semantics, 0) + 1
        self.self_s[semantics] = self.self_s.get(semantics, 0.0) + self_s
        total = self.totals.setdefault(semantics, {
            "steps": 0, "merges": 0, "cache_hits": 0, "cache_misses": 0,
            "max_pending_mediators": 0,
        })
        for key in ("steps", "merges", "cache_hits", "cache_misses"):
            total[key] += stats[key]
        total["max_pending_mediators"] = max(
            total["max_pending_mediators"], stats["max_pending_mediators"]
        )

    def metrics(self) -> dict:
        out = {}
        for semantics, ops in self.ops.items():
            total = self.totals[semantics]
            lookups = total["cache_hits"] + total["cache_misses"]
            out[f"run.self_s.{semantics}"] = self.self_s[semantics] / ops
            out[f"run.steps.{semantics}"] = total["steps"] / ops
            out[f"run.merges.{semantics}"] = total["merges"] / ops
            out[f"run.inline_cache_hit_ratio.{semantics}"] = (
                total["cache_hits"] / lookups if lookups else 0.0
            )
            out[f"run.max_pending_mediators.{semantics}"] = total["max_pending_mediators"]
        return out
