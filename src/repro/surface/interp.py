"""The surface front end as one call: lex → parse → type check → insert casts.

:func:`compile_source` turns program text into the closed λB term and static
type that every engine starts from.  Running the result is
:func:`repro.api.run`'s job: build a :class:`repro.api.RunConfig` (engine,
calculus, enforcement semantics, ``-O`` level, fuel, cache) and pass the
source or the term to it.
"""

from __future__ import annotations

from ..core.terms import Term
from ..core.types import Type
from ..obs.metrics import phase


def compile_source(source: str, metrics=None) -> tuple[Term, Type]:
    """Lex, parse and elaborate a source program into a closed λB term and
    its type.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) gets the
    ``lex``, ``parse`` and ``elaborate`` phase timers, which do not overlap
    (elaboration is type checking plus cast insertion — one traversal,
    timed as one phase)."""
    from . import parser
    from .cast_insertion import elaborate_program

    # Called through the module, so a wrapper of either function sees it.
    with phase(metrics, "lex"):
        tokens = parser.tokenize(source)
    with phase(metrics, "parse"):
        program = parser.parse_program(source, tokens)
    with phase(metrics, "elaborate"):
        return elaborate_program(program)
