"""Tests for the primitive operators and their total meaning functions."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import EvaluationError, TypeCheckError
from repro.core.ops import (
    OPS,
    check_constant,
    constant_type,
    int_to_decimal,
    op_exists,
    op_spec,
)
from repro.core.types import BOOL, INT, STR, UNIT

#: A literal just under CPython's 4,300-digit int→str limit; its square is
#: well past it.
LONG = "7" * 3000


def from_decimal(text: str) -> int:
    """Parse a decimal string of any length, 1,000 digits at a time (each
    chunk is under CPython's str→int limit)."""
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("-")
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


class TestRegistry:
    def test_known_operators_exist(self):
        for name in ("+", "-", "*", "/", "%", "=", "<", "zero?", "not", "and", "or"):
            assert op_exists(name)

    def test_unknown_operator_raises(self):
        with pytest.raises(TypeCheckError):
            op_spec("frobnicate")

    def test_specs_have_consistent_arity(self):
        for name, spec in OPS.items():
            assert spec.arity == len(spec.arg_types), name

    def test_every_result_type_is_a_base_type(self):
        for spec in OPS.values():
            assert spec.result_type in (INT, BOOL, STR, UNIT)


class TestMeaningFunctions:
    @pytest.mark.parametrize(
        "op, args, expected",
        [
            ("+", (2, 3), 5),
            ("-", (2, 3), -1),
            ("*", (4, 5), 20),
            ("/", (7, 2), 3),
            ("%", (7, 2), 1),
            ("neg", (5,), -5),
            ("abs", (-5,), 5),
            ("min", (2, 9), 2),
            ("max", (2, 9), 9),
            ("inc", (41,), 42),
            ("dec", (43,), 42),
            ("=", (3, 3), True),
            ("<", (2, 3), True),
            ("<=", (3, 3), True),
            (">", (2, 3), False),
            (">=", (2, 3), False),
            ("zero?", (0,), True),
            ("zero?", (1,), False),
            ("even?", (4,), True),
            ("odd?", (4,), False),
            ("not", (True,), False),
            ("and", (True, False), False),
            ("or", (True, False), True),
            ("bool=", (True, True), True),
            ("string-append", ("ab", "cd"), "abcd"),
            ("string-length", ("hello",), 5),
            ("string=", ("a", "a"), True),
            ("int->string", (42,), "42"),
        ],
    )
    def test_meaning(self, op, args, expected):
        assert op_spec(op).apply(args) == expected

    def test_division_by_zero_is_total(self):
        assert op_spec("/").apply((5, 0)) == 0
        assert op_spec("%").apply((5, 0)) == 0

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_arithmetic_preserves_int(self, a, b):
        """Type preservation of meaning functions: op : int×int → int."""
        for op in ("+", "-", "*", "/", "%", "min", "max"):
            assert isinstance(op_spec(op).apply((a, b)), int)

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_comparisons_produce_bools(self, a, b):
        for op in ("=", "<", "<=", ">", ">="):
            assert isinstance(op_spec(op).apply((a, b)), bool)

    def test_wrong_arity_raises(self):
        with pytest.raises(EvaluationError):
            op_spec("+").apply((1,))

    def test_unit_operator(self):
        assert op_spec("unit").apply(()) is None


#: The Python expression each operator whose meaning is an ``operator``
#: builtin stands for.
EXPRESSIONS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "neg": lambda a: -a,
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "not": lambda a: not a,
}


def _result(meaning, args) -> tuple:
    try:
        value = meaning(*args)
    except TypeError as exc:
        return ("TypeError", str(exc))
    return ("value", value, type(value))


@pytest.mark.parametrize("op", sorted(EXPRESSIONS))
def test_builtin_meanings_match_their_expressions(op):
    # Same values on every operand kind, and the same TypeError text on
    # ill-typed ones (Erasure reports that text).
    spec = op_spec(op)
    for args in itertools.product((3, -4, True, "ab", None), repeat=spec.arity):
        assert _result(spec.meaning, args) == _result(EXPRESSIONS[op], args), args


class TestLongIntegers:
    """``int->string`` is total past CPython's int→str digit limit, which
    stays as it was."""

    @pytest.mark.parametrize("digits", [1, 4299, 4300, 4301, 6000, 9001, 30000])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_to_decimal_round_trips(self, digits, sign):
        import sys

        limit = sys.get_int_max_str_digits()
        value = sign * (10**digits - 7 * 10 ** (digits // 2) - 1)
        text = int_to_decimal(value)
        assert from_decimal(text) == value
        assert len(text.lstrip("-")) == digits
        if digits <= limit:
            assert text == str(value)
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("engine", ["machine", "vm", "rvm"])
    def test_int_to_string_of_a_long_product(self, engine):
        from repro.api import RunConfig, run

        result = run(f"(int->string (* {LONG} {LONG}))\n", RunConfig(engine=engine))
        assert result.is_value
        assert from_decimal(result.value) == int(LONG) ** 2


class TestConstants:
    def test_constant_types(self):
        assert constant_type(3) == INT
        assert constant_type(True) == BOOL
        assert constant_type("x") == STR
        assert constant_type(None) == UNIT

    def test_bool_is_not_an_int_constant(self):
        # Python bools are ints; the type assignment must pick bool first.
        assert constant_type(True) == BOOL

    def test_unsupported_constant(self):
        with pytest.raises(TypeCheckError):
            constant_type(3.14)

    def test_check_constant(self):
        assert check_constant(3, INT)
        assert not check_constant(3, BOOL)
        assert not check_constant(object(), INT)
