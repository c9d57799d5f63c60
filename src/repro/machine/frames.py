"""Continuation frames for the CEK-style abstract machines.

A continuation is a Python list of frames, innermost last (so pushing and
popping are O(1) at the end of the list).  The frame of interest for the
space story is :class:`KMediate` — a pending cast/coercion waiting for the
value of the term it surrounds.  In the λB and λC machines these frames pile
up under boundary-crossing tail calls; the λS machine *merges* a newly pushed
``KMediate`` into one already at the top of the continuation using the
composition operator ``#``, which is exactly the space-efficiency mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.terms import Term
from ..core.types import FunType
from .values import Environment, MachineValue


class Frame:
    """Abstract base class of continuation frames."""

    __slots__ = ()


@dataclass
class KAppFun(Frame):
    """Waiting for the function of an application; the argument is still a term."""

    arg: Term
    env: Environment


@dataclass
class KAppArg(Frame):
    """Waiting for the argument of an application; the function is a value."""

    fun: MachineValue


@dataclass
class KCallWith(Frame):
    """Waiting for a function value to apply to an already-evaluated argument."""

    arg: MachineValue


@dataclass
class KOp(Frame):
    """Waiting for the next operand of a primitive operator."""

    op: str
    done: tuple[MachineValue, ...]
    remaining: tuple[Term, ...]
    env: Environment


@dataclass
class KIf(Frame):
    then_branch: Term
    else_branch: Term
    env: Environment


@dataclass
class KLet(Frame):
    name: str
    body: Term
    env: Environment


@dataclass
class KFix(Frame):
    """Waiting for the functional of ``fix`` to become a value."""

    fun_type: FunType


@dataclass
class KPairLeft(Frame):
    right: Term
    env: Environment


@dataclass
class KPairRight(Frame):
    left: MachineValue


@dataclass
class KFst(Frame):
    pass


@dataclass
class KSnd(Frame):
    pass


@dataclass
class KMediate(Frame):
    """A pending mediator (cast or coercion) around the running computation."""

    mediator: object


Kont = list


def pending_mediators(kont: Sequence[Frame]) -> list[object]:
    """The mediators of all pending :class:`KMediate` frames, outermost first."""
    return [frame.mediator for frame in kont if isinstance(frame, KMediate)]
