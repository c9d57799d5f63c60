"""The surface front end as one call: parse → type check → insert casts.

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
    """Parse and elaborate a source program into a closed λB term and its type.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) gets the
    ``parse`` and ``elaborate`` phase timers (elaboration is type checking
    plus cast insertion — one traversal, timed as one phase)."""
    from .cast_insertion import elaborate_program
    from .parser import parse_program

    with phase(metrics, "parse"):
        program = parse_program(source)
    with phase(metrics, "elaborate"):
        return elaborate_program(program)
