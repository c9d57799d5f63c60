"""Machine values for the CEK-style abstract machines.

The abstract machines (cf. Siek & Garcia 2012) use environments and closures
rather than substitution, so they have their own value representation:

* :class:`MConst` — a base-type constant;
* :class:`MClosure` — a λ-abstraction closed over its environment;
* :class:`MPair` — a pair of machine values;
* :class:`MProxy` — a value wrapped by a mediator (a cast in the λB machine,
  a coercion in the λC machine, a canonical coercion in the λS machine); this
  is how higher-order casts and injections into ``?`` are represented;
* :class:`MFixWrap` — the recursive wrapper produced by ``fix``.
"""

from __future__ import annotations

from typing import Mapping

from ..core.ops import int_to_decimal
from ..core.records import record
from ..core.terms import Term
from ..core.types import FunType, Type


class MachineValue:
    """Abstract base class of machine values."""

    __slots__ = ()


class MFunctionValue(MachineValue):
    """Marker base for function-like values (closures, fix wrappers).

    The bytecode VM (:mod:`repro.compiler.vm`) has its own closure
    representation; subclassing this marker is all it takes for the shared
    projection :func:`machine_value_to_python` to report it as a function.
    """

    __slots__ = ()


@record
class MConst(MachineValue):
    value: object
    type: Type


@record
class MClosure(MFunctionValue):
    param: str
    param_type: Type
    body: Term
    env: "Environment"


@record
class MPair(MachineValue):
    left: MachineValue
    right: MachineValue


@record
class MProxy(MachineValue):
    """A value guarded by a mediator (function/product proxy or injection)."""

    under: MachineValue
    mediator: object


@record
class MFixWrap(MFunctionValue):
    """The value of ``fix V``'s unrolling wrapper ``λx. (fix V) x``."""

    functional: MachineValue
    fun_type: FunType


class Environment:
    """A persistent environment mapping variable names to machine values."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, MachineValue] | None = None):
        self._bindings: dict[str, MachineValue] = dict(bindings or {})

    @staticmethod
    def empty() -> "Environment":
        return Environment()

    def extend(self, name: str, value: MachineValue) -> "Environment":
        new = dict(self._bindings)
        new[name] = value
        return Environment(new)

    def lookup(self, name: str) -> MachineValue:
        try:
            return self._bindings[name]
        except KeyError as exc:
            raise KeyError(f"unbound variable at run time: {name!r}") from exc

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Environment({sorted(self._bindings)})"


def proxy_depth(value: MachineValue) -> int:
    """Number of mediator layers wrapped around a value."""
    depth = 0
    current = value
    while isinstance(current, MProxy):
        depth += 1
        current = current.under
    return depth


def machine_value_to_python(value: MachineValue) -> object:
    """Project a first-order machine value to a Python object (for reporting)."""
    if isinstance(value, MConst):
        return value.value
    if isinstance(value, MPair):
        return (machine_value_to_python(value.left), machine_value_to_python(value.right))
    if isinstance(value, MProxy):
        return machine_value_to_python(value.under)
    if isinstance(value, MFunctionValue):
        return "<function>"
    raise TypeError(f"unknown machine value: {value!r}")


def repr_value(value: object) -> str:
    """``repr`` of a value :func:`machine_value_to_python` reports, total on
    ints too long for ``repr`` (CPython's int→str digit limit)."""
    if type(value) is int:
        return int_to_decimal(value)
    if type(value) is tuple:
        return "(" + ", ".join(map(repr_value, value)) + ")"
    return repr(value)


def json_value(value: object) -> object:
    """A reported value as JSON-ready data.  An int too long for ``json`` to
    write (or ``int()`` to read back) under CPython's int→str digit limit
    becomes its decimal string; everything else is unchanged."""
    if type(value) is int:
        try:
            str(value)
        except ValueError:
            return int_to_decimal(value)
        return value
    if type(value) is tuple:
        return tuple(map(json_value, value))
    return value
