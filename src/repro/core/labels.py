"""Blame labels with involutive complement.

Section 2 of the paper: "Let p, q range over blame labels.  To indicate on
which side of a cast blame lays, each blame label p has a complement p̄.
Complement is involutive, p̄̄ = p."

A label therefore consists of a name and a polarity.  ``complement`` flips the
polarity; applying it twice returns the original label.  The distinguished
label ``BULLET`` plays the role of the paper's ``•`` — a label attached to
casts that can never allocate blame (used by the coercion-to-cast translation
of Figure 4).
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .records import record


@record(order=True)
class Label:
    """A blame label ``p`` or its complement ``p̄``.

    Attributes:
        name: the human-readable label name (typically a source location or a
            freshly generated identifier such as ``"p3"``).
        positive: ``True`` for ``p`` itself, ``False`` for the complement
            ``p̄``.  Positive blame means the fault lies with the term inside
            the cast; negative blame means the fault lies with the context.
    """

    name: str
    positive: bool = True

    def complement(self) -> "Label":
        """Return ``p̄`` for ``p`` and ``p`` for ``p̄`` (involutive)."""
        return Label(self.name, not self.positive)

    @property
    def is_negative(self) -> bool:
        return not self.positive

    def base(self) -> "Label":
        """Return the positive version of this label."""
        return self if self.positive else Label(self.name, True)

    def same_base(self, other: "Label") -> bool:
        """True when two labels differ at most in polarity."""
        return self.name == other.name

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name if self.positive else f"~{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Label({self.name!r}, positive={self.positive})"


#: The paper's ``•`` label: "a blame label in casts where the label is
#: irrelevant because the cast cannot allocate blame" (Figure 4).
BULLET = Label("•")


def label(name: str) -> Label:
    """Convenience constructor for a positive label."""
    return Label(name, True)


class LabelSupply:
    """A supply of fresh blame labels.

    The embedding of the dynamically typed λ-calculus (Figure 1) and the
    surface-language cast-insertion pass both "introduce a fresh label for
    each cast"; they draw the labels from an instance of this class so tests
    can reproduce label assignment deterministically.
    """

    def __init__(self, prefix: str = "p", start: int = 1):
        self._prefix = prefix
        self._counter = itertools.count(start)

    def fresh(self, hint: str | None = None) -> Label:
        """Return a fresh positive label, optionally embedding a hint."""
        index = next(self._counter)
        if hint:
            return Label(f"{self._prefix}{index}:{hint}", True)
        return Label(f"{self._prefix}{index}", True)

    def fresh_many(self, count: int) -> Iterator[Label]:
        for _ in range(count):
            yield self.fresh()


def complement(p: Label) -> Label:
    """Free-function form of :meth:`Label.complement`."""
    return p.complement()
