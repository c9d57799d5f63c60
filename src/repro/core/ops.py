"""Primitive operators on base types.

Figure 1: "Each operator ``op`` on base types is specified by a total meaning
function ``[[op]]`` that preserves types: if ``op : ι⃗ → ι`` and ``k⃗ : ι⃗``,
then ``[[op]](k⃗) = k`` with ``k : ι``."

Every operator registered here is total on well-typed constant arguments;
in particular division and modulo are made total by mapping division by zero
to ``0`` (documented deviation in DESIGN.md).  Operators only consume and
produce *base-type* constants, exactly as in the paper — higher-order
behaviour always goes through application and casts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import EvaluationError, TypeCheckError
from .types import BOOL, INT, STR, UNIT, BaseType, Type


@dataclass(frozen=True)
class OpSpec:
    """Signature and meaning function of a primitive operator.

    Attributes:
        name: the operator's surface name (e.g. ``"+"``).
        arg_types: the base types of the operands, ``ι⃗``.
        result_type: the base type of the result, ``ι``.
        meaning: the total meaning function ``[[op]]``.
    """

    name: str
    arg_types: tuple[BaseType, ...]
    result_type: BaseType
    meaning: Callable[..., object]

    @property
    def arity(self) -> int:
        return len(self.arg_types)

    def apply(self, args: Sequence[object]) -> object:
        """Apply the meaning function, checking arity."""
        if len(args) != self.arity:
            raise EvaluationError(
                f"operator {self.name!r} expects {self.arity} arguments, got {len(args)}"
            )
        try:
            return self.meaning(*args)
        except TypeError as exc:
            raise operand_type_error(self.name, exc) from exc


def operand_type_error(name: str, exc: TypeError) -> EvaluationError:
    """The dynamic type error of operator ``name``, whose meaning function
    raised ``exc``.  Meaning functions are total on well-typed constants,
    so only a semantics that checks nothing (Erasure) lets an ill-typed
    operand reach one."""
    return EvaluationError(f"operator {name!r} applied to an operand of the wrong type: {exc}")


def _total_div(a: int, b: int) -> int:
    return 0 if b == 0 else a // b


def _total_mod(a: int, b: int) -> int:
    return 0 if b == 0 else a % b


def int_to_decimal(n: int) -> str:
    """``str(n)`` for every int, including one with more digits than
    CPython's int→str limit (``sys.get_int_max_str_digits()``, 4,300 by
    default) converts.  Such an int is split near its middle digit and the
    halves converted separately, so the interpreter-wide limit is left as
    it is.  This is the meaning of ``int->string``."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + int_to_decimal(-n)
    # A little under half the digits (log10 2 > 3/10): both halves shrink.
    half = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**half)
    return int_to_decimal(high) + int_to_decimal(low).zfill(half)


def _build_registry() -> dict[str, OpSpec]:
    specs = [
        # Integer arithmetic.
        OpSpec("+", (INT, INT), INT, operator.add),
        OpSpec("-", (INT, INT), INT, operator.sub),
        OpSpec("*", (INT, INT), INT, operator.mul),
        OpSpec("/", (INT, INT), INT, _total_div),
        OpSpec("%", (INT, INT), INT, _total_mod),
        OpSpec("neg", (INT,), INT, operator.neg),
        OpSpec("abs", (INT,), INT, abs),
        OpSpec("min", (INT, INT), INT, min),
        OpSpec("max", (INT, INT), INT, max),
        OpSpec("inc", (INT,), INT, lambda a: a + 1),
        OpSpec("dec", (INT,), INT, lambda a: a - 1),
        # Integer comparisons.
        OpSpec("=", (INT, INT), BOOL, operator.eq),
        OpSpec("<", (INT, INT), BOOL, operator.lt),
        OpSpec("<=", (INT, INT), BOOL, operator.le),
        OpSpec(">", (INT, INT), BOOL, operator.gt),
        OpSpec(">=", (INT, INT), BOOL, operator.ge),
        OpSpec("zero?", (INT,), BOOL, lambda a: a == 0),
        OpSpec("even?", (INT,), BOOL, lambda a: a % 2 == 0),
        OpSpec("odd?", (INT,), BOOL, lambda a: a % 2 == 1),
        # Booleans.
        OpSpec("not", (BOOL,), BOOL, operator.not_),
        OpSpec("and", (BOOL, BOOL), BOOL, lambda a, b: a and b),
        OpSpec("or", (BOOL, BOOL), BOOL, lambda a, b: a or b),
        OpSpec("bool=", (BOOL, BOOL), BOOL, lambda a, b: a == b),
        # Strings.
        OpSpec("string-append", (STR, STR), STR, lambda a, b: a + b),
        OpSpec("string-length", (STR,), INT, len),
        OpSpec("string=", (STR, STR), BOOL, lambda a, b: a == b),
        OpSpec("int->string", (INT,), STR, int_to_decimal),
        # Unit.
        OpSpec("unit", (), UNIT, lambda: None),
    ]
    return {spec.name: spec for spec in specs}


#: Registry of the built-in operators, keyed by name.
OPS: Mapping[str, OpSpec] = _build_registry()


def op_spec(name: str) -> OpSpec:
    """Look up an operator, raising :class:`TypeCheckError` if unknown."""
    try:
        return OPS[name]
    except KeyError as exc:
        raise TypeCheckError(f"unknown primitive operator: {name!r}") from exc


def op_exists(name: str) -> bool:
    return name in OPS


def constant_type(value: object) -> Type:
    """The base type of a Python constant used as ``k : ι``."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, str):
        return STR
    if value is None:
        return UNIT
    raise TypeCheckError(f"no base type for constant {value!r}")


def check_constant(value: object, ty: Type) -> bool:
    """Does the Python constant ``value`` inhabit base type ``ty``?"""
    try:
        return constant_type(value) == ty
    except TypeCheckError:
        return False
