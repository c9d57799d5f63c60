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


def compile_source(source: str, metrics=None, lines: dict | None = None) -> tuple[Term, Type]:
    """Lex, parse and elaborate a source program into a closed λB term and
    its type.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) gets the
    ``lex``, ``parse`` and ``elaborate`` phase timers, which do not overlap
    (elaboration is type checking plus cast insertion — one traversal,
    timed as one phase).

    ``lines``, a long-lived caller's line memo (see
    :func:`~repro.surface.parser.memoized_program`), lets the program be
    built from the lines parsed before, lexing and parsing only the others
    (timed as ``parse``); a source the memo cannot take is read whole."""
    from . import parser
    from .cast_insertion import elaborate_program

    # Called through the module, so a wrapper of any of them sees it.
    program = None
    if lines is not None:
        with phase(metrics, "parse"):
            program = parser.memoized_program(source, lines)
    if program is None:
        with phase(metrics, "lex"):
            tokens = parser.tokenize(source)
        with phase(metrics, "parse"):
            program = parser.parse_program(source, tokens)
    with phase(metrics, "elaborate"):
        return elaborate_program(program)
