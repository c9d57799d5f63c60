"""Tests for λB type checking (Figure 1)."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.core.env import TypeEnv
from repro.core.errors import TypeCheckError
from repro.core.labels import label
from repro.core.terms import (
    App,
    Blame,
    Cast,
    Fix,
    Fst,
    If,
    Lam,
    Let,
    Op,
    Pair,
    Snd,
    Var,
    const_bool,
    const_int,
)
from repro.core.types import BOOL, DYN, INT, FunType, ProdType, UnknownType, types_equal
from repro.lambda_b.typecheck import check, type_of, well_typed

from .strategies import lambda_b_programs

P = label("p")


class TestStandardConstructs:
    def test_constants(self):
        assert type_of(const_int(3)) == INT
        assert type_of(const_bool(True)) == BOOL

    def test_variables_from_the_environment(self):
        env = TypeEnv({"x": INT})
        assert type_of(Var("x"), env) == INT

    def test_unbound_variable_is_an_error(self):
        with pytest.raises(TypeCheckError):
            type_of(Var("x"))

    def test_lambda_and_application(self):
        identity = Lam("x", INT, Var("x"))
        assert type_of(identity) == FunType(INT, INT)
        assert type_of(App(identity, const_int(3))) == INT

    def test_application_argument_mismatch(self):
        identity = Lam("x", INT, Var("x"))
        with pytest.raises(TypeCheckError):
            type_of(App(identity, const_bool(True)))

    def test_application_of_non_function(self):
        with pytest.raises(TypeCheckError):
            type_of(App(const_int(1), const_int(2)))

    def test_operator_typing(self):
        assert type_of(Op("+", (const_int(1), const_int(2)))) == INT
        assert type_of(Op("zero?", (const_int(0),))) == BOOL

    def test_operator_argument_mismatch(self):
        with pytest.raises(TypeCheckError):
            type_of(Op("+", (const_int(1), const_bool(True))))

    def test_operator_arity_mismatch(self):
        with pytest.raises(TypeCheckError):
            type_of(Op("+", (const_int(1),)))

    def test_if_typing(self):
        assert type_of(If(const_bool(True), const_int(1), const_int(2))) == INT

    def test_if_requires_boolean_condition(self):
        with pytest.raises(TypeCheckError):
            type_of(If(const_int(1), const_int(1), const_int(2)))

    def test_if_requires_matching_branches(self):
        with pytest.raises(TypeCheckError):
            type_of(If(const_bool(True), const_int(1), const_bool(False)))

    def test_let_typing(self):
        assert type_of(Let("x", const_int(1), Op("+", (Var("x"), const_int(1))))) == INT

    def test_fix_typing(self):
        fun_type = FunType(INT, INT)
        functional = Lam("f", fun_type, Lam("x", INT, Var("x")))
        assert type_of(Fix(functional, fun_type)) == fun_type

    def test_fix_requires_a_functional(self):
        with pytest.raises(TypeCheckError):
            type_of(Fix(const_int(1), FunType(INT, INT)))

    def test_pairs_and_projections(self):
        pair = Pair(const_int(1), const_bool(True))
        assert type_of(pair) == ProdType(INT, BOOL)
        assert type_of(Fst(pair)) == INT
        assert type_of(Snd(pair)) == BOOL

    def test_projection_of_non_pair(self):
        with pytest.raises(TypeCheckError):
            type_of(Fst(const_int(1)))


class TestCastsAndBlame:
    def test_cast_typing_rule(self):
        cast = Cast(const_int(1), INT, DYN, P)
        assert type_of(cast) == DYN

    def test_cast_requires_subject_of_source_type(self):
        with pytest.raises(TypeCheckError):
            type_of(Cast(const_bool(True), INT, DYN, P))

    def test_cast_requires_compatible_types(self):
        with pytest.raises(TypeCheckError):
            type_of(Cast(const_int(1), INT, BOOL, P))

    def test_higher_order_cast(self):
        fun = Lam("x", DYN, Var("x"))
        cast = Cast(fun, FunType(DYN, DYN), FunType(INT, DYN), P)
        assert type_of(cast) == FunType(INT, DYN)

    def test_blame_takes_any_type(self):
        assert isinstance(type_of(Blame(P)), UnknownType)
        # blame can be used wherever any type is expected:
        assert type_of(App(Lam("x", INT, Var("x")), Blame(P))) == INT
        assert types_equal(type_of(If(const_bool(True), Blame(P), const_int(1))), INT)

    def test_check_helper(self):
        check(const_int(1), INT)
        with pytest.raises(TypeCheckError):
            check(const_int(1), BOOL)

    def test_well_typed_helper(self):
        assert well_typed(Cast(const_int(1), INT, DYN, P))
        assert not well_typed(Cast(const_int(1), BOOL, DYN, P))


class TestGeneratedPrograms:
    @given(lambda_b_programs())
    def test_generated_programs_type_check_at_their_declared_type(self, program):
        term, ty = program
        assert types_equal(type_of(term), ty)
