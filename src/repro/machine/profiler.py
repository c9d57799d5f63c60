"""Space and time accounting for the abstract machines.

The quantities of interest (following Herman et al. 2007/2010 and Section 1
of the paper):

* ``max_pending_mediators`` — the largest number of pending cast/coercion
  frames on the continuation at any point of the run;
* ``max_pending_size`` — the largest total *size* of those pending mediators;
* ``max_kont_depth`` — the deepest continuation overall (pending mediators
  plus ordinary frames);
* ``steps`` — machine transitions taken.

For boundary-crossing tail-recursive programs, the first two grow linearly
with the number of calls on the λB and λC machines and stay bounded on the λS
machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MachineStats:
    """Mutable counters updated by the machine while it runs."""

    steps: int = 0
    max_kont_depth: int = 0
    max_pending_mediators: int = 0
    max_pending_size: int = 0
    pending_mediators: int = field(default=0, repr=False)
    pending_size: int = field(default=0, repr=False)
    merges: int = 0
    mediator_applications: int = 0
    #: Per-opcode dispatch counts (``op -> count``), filled only when a VM
    #: runs with ``--profile`` on.  Keys are opcode numbers of the running
    #: IR (stack or register); the CLI maps them to names before printing.
    opcode_counts: dict | None = field(default=None, repr=False)
    #: Inline mediator-cache consults that hit/missed, counted by the VMs at
    #: every cache-cell consult (``-O2`` only; both stay 0 below that).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Did the engine run with inline mediator caches allocated?  Set by the
    #: VMs from ``code.caches``; makes a ``-O2`` run that never consulted a
    #: cache distinguishable from a ``-O0`` run in the snapshot (both would
    #: otherwise drop the zero hit/miss counters).
    inline_caches: bool = field(default=False, repr=False)

    def note_depth(self, depth: int) -> None:
        if depth > self.max_kont_depth:
            self.max_kont_depth = depth

    def push_mediator(self, size: int) -> None:
        self.pending_mediators += 1
        self.pending_size += size
        self._refresh()

    def pop_mediator(self, size: int) -> None:
        self.pending_mediators -= 1
        self.pending_size -= size

    def replace_mediator(self, old_size: int, new_size: int) -> None:
        self.pending_size += new_size - old_size
        self.merges += 1
        self._refresh()

    def _refresh(self) -> None:
        if self.pending_mediators > self.max_pending_mediators:
            self.max_pending_mediators = self.pending_mediators
        if self.pending_size > self.max_pending_size:
            self.max_pending_size = self.pending_size

    def snapshot(self) -> dict[str, int]:
        result = {
            "steps": self.steps,
            "max_kont_depth": self.max_kont_depth,
            "max_pending_mediators": self.max_pending_mediators,
            "max_pending_size": self.max_pending_size,
            "merges": self.merges,
            "mediator_applications": self.mediator_applications,
        }
        if self.inline_caches or self.cache_hits or self.cache_misses:
            result["cache_hits"] = self.cache_hits
            result["cache_misses"] = self.cache_misses
        if self.opcode_counts is not None:
            result["opcode_counts"] = dict(self.opcode_counts)
        return result
