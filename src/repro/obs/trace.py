"""The tracer: the single hook point every engine consults.

Zero-cost-when-off is the contract.  The module holds one global,
``_ACTIVE`` (``None`` almost always); each engine's ``run()`` reads it
*once* into a local via :func:`current_tracer`, and every hook in the
dispatch loops is guarded by a single ``if tracer is not None`` attribute
test on that local.  Hooks live only at mediator lifecycle sites — install,
merge, collapse, apply, blame — never on the per-instruction path, so the
pending-mediator timeline is *exact* (pending counts change only at those
sites) at no per-dispatch cost.

The tracer never mutates :class:`~repro.machine.profiler.MachineStats` or
any engine state, so a traced run's outcome — value/blame/steps/space
profile — is bit-identical to the untraced run by construction (asserted by
the hypothesis property in ``tests/test_obs.py``).

Mediator identity: definitions are interned per tracer — hashable mediators
(all four families) dedupe structurally, so the canonical interned
mediators a λS loop re-merges every iteration define once and every later
event carries a small integer reference.

Usage::

    from repro.api import run
    from repro.obs import ListSink, tracing

    sink = ListSink()
    with tracing(sink):
        result = run(source, engine="rvm")
    events = sink.events

This module must stay importable by the engines without a cycle: nothing
here (or in :mod:`repro.obs.events`) imports an engine module at top level.
"""

from __future__ import annotations

from contextlib import contextmanager

from .events import (
    Apply,
    BlameEvent,
    Collapse,
    Install,
    MediatorDef,
    Merge,
    RunEnd,
    RunStart,
    describe_mediator,
)

_ACTIVE = None


def current_tracer():
    """The active tracer, or ``None`` — the engines' single hook test."""
    return _ACTIVE


def activate(tracer) -> None:
    """Install ``tracer`` as the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = tracer


def deactivate() -> None:
    """Clear the active tracer."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def tracing(sink, program: str | None = None):
    """Trace every engine run in the ``with`` body into ``sink``.

    Restores the previously active tracer (if any) on exit and closes the
    sink.  Yields the :class:`Tracer` for inspection.
    """
    tracer = Tracer(sink, program=program)
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
        sink.close()


class Tracer:
    """Translates engine hook calls into schema events on a sink."""

    __slots__ = ("sink", "program", "_ids", "_next", "_size",
                 "_last_apply_step", "_last_apply_m")

    def __init__(self, sink, program: str | None = None):
        self.sink = sink
        self.program = program
        self._ids: dict = {}
        self._next = 0
        self._size = None  # the running policy's size(), set by run_start
        self._last_apply_step = -1
        self._last_apply_m: int | None = None

    # -- mediator identity --------------------------------------------------

    def mediator_id(self, m: object) -> int:
        """The small-int id of ``m``, emitting its definition on first sight."""
        try:
            ident = self._ids.get(m)
            key = m
        except TypeError:  # unhashable mediator: fall back to object identity
            key = id(m)
            ident = self._ids.get(key)
        if ident is None:
            ident = self._next
            self._next += 1
            self._ids[key] = ident
            size = None
            if self._size is not None:
                try:
                    size = self._size(m)
                except Exception:
                    size = None
            text, size, labels = describe_mediator(m, size)
            self.sink.emit(MediatorDef(ident, text, size, labels).to_dict())
        return ident

    # -- engine hooks --------------------------------------------------------

    def run_start(self, engine: str, policy) -> None:
        """A run began; ``policy`` supplies calculus, backend, and sizes."""
        self._size = policy.size
        self._last_apply_step = -1
        self._last_apply_m = None
        self.sink.emit(
            RunStart(engine, policy.name, policy.mediator, self.program).to_dict()
        )

    def install(self, step: int, m: object, pending: int, pending_size: int) -> None:
        self.sink.emit(
            Install(step, self.mediator_id(m), pending, pending_size).to_dict()
        )

    def merge(self, step: int, new: object, prev: object, merged: object,
              pending: int, pending_size: int) -> None:
        self.sink.emit(
            Merge(step, self.mediator_id(new), self.mediator_id(prev),
                  self.mediator_id(merged), pending, pending_size).to_dict()
        )

    def absorb(self, step: int, new: object, prev: object, merged: object,
               pending: int, pending_size: int) -> None:
        """A proxy mediator composed into a coercion at an apply site.

        Emits the same ``merge`` event (the composition *is* provenance) and
        marks ``merged`` as the mediator about to be applied, so blame raised
        by the application lands on the composed mediator.
        """
        mid = self.mediator_id(merged)
        self.sink.emit(
            Merge(step, self.mediator_id(new), self.mediator_id(prev), mid,
                  pending, pending_size).to_dict()
        )
        self._last_apply_step = step
        self._last_apply_m = mid
        self.sink.emit(Apply(step, mid).to_dict())

    def collapse(self, step: int, m: object, pending: int, pending_size: int) -> None:
        """A pending mediator left the continuation and is about to apply."""
        mid = self.mediator_id(m)
        self.sink.emit(Collapse(step, mid, pending, pending_size).to_dict())
        self._last_apply_step = step
        self._last_apply_m = mid
        self.sink.emit(Apply(step, mid).to_dict())

    def apply(self, step: int, m: object) -> None:
        mid = self.mediator_id(m)
        self._last_apply_step = step
        self._last_apply_m = mid
        self.sink.emit(Apply(step, mid).to_dict())

    def blame(self, step: int, label) -> None:
        m = self._last_apply_m if self._last_apply_step == step else None
        self.sink.emit(BlameEvent(step, str(label), m).to_dict())

    def run_end(self, outcome: str, stats: dict) -> None:
        self.sink.emit(RunEnd(outcome, stats.get("steps", 0), stats).to_dict())
